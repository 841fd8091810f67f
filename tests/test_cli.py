import argparse
import dataclasses
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ldpshuffle.cli as cli
import ldpshuffle.client as client_mod
import ldpshuffle.divergence as divergence
import ldpshuffle.harness as harness
from ldpshuffle.amplification import AmplificationResult, amplify_shuffle
from ldpshuffle.divergence import CertificationRecord, certify_amplification
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

    def test_population_below_two_names_the_float_bound(self, capsys):
        # the accountant's n only has to convert to a float, so the upper end
        # of its range is a float and prints like check_real's
        code, out, err = _run(capsys, ["bound", "--eps0", "0.5", "--n", "1", "--delta", "1e-6"])
        assert code == 2
        assert out == ""
        assert "n must be an integer in [2, 1.79769e+308], got 1" in err


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

    def test_local_budget_past_the_scan_domain_is_certified_without_a_scan(self, capsys):
        # the accountant claims eps0 itself here, as at every eps0 past
        # ~355, and every delta is 0 there: the scan's cap of 700 is not met
        code, out, _ = _run(capsys, ["verify-amplification", "--n", "1000",
                                     "--eps0", "800", "--delta", "1e-4"])
        assert code == 0
        assert out == ('{"claimed_epsilon": 800.0, "delta_bar": 0.0, "delta_target": 0.0001, '
                       '"eps0": 800.0, "exact_delta": 0.0, "n": 1000, "passed": true, '
                       '"regime": "no-amplification"}\n')

    def test_keys_are_the_record_fields(self, capsys):
        code, out, _ = _run(capsys, ["verify-amplification", "--n", "100",
                                     "--eps0", "0.5", "--delta", "1e-4"])
        assert code == 0
        record = json.loads(out)
        assert set(record) == {f.name for f in dataclasses.fields(CertificationRecord)}
        assert (record["n"], record["eps0"], record["delta_target"]) == (100, 0.5, 1e-4)
        # printed from the record's own fields, byte for byte its asdict form
        assert out == json.dumps(dataclasses.asdict(certify_amplification(100, 0.5, 1e-4)),
                                 sort_keys=True) + "\n"

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
    @example("# n,eps0,delta\n100,0.5,1e-4\n 2 , 3 ,0.5\n")
    def test_grid_parse_fuzz(self, tmp_path_factory, text):
        # parsing only: the points are collected, none is certified; each
        # carries the accountant's claim that checked it
        grid = tmp_path_factory.mktemp("grid") / "grid.csv"
        grid.write_bytes(text.encode("utf-8"))
        try:
            points = list(cli._verify_points(argparse.Namespace(grid=str(grid))))
        except ParseError as exc:
            assert isinstance(exc.line_number, int)
            return
        for n, eps0, delta, claim in points:
            assert type(n) is int and type(eps0) is float and type(delta) is float
            assert claim == amplify_shuffle(eps0, n, delta)

    def test_each_grid_point_runs_the_accountant_and_the_oracle_once(self, capsys,
                                                                      monkeypatch, tmp_path):
        # the claim that checks a row is the one certified, and nothing is
        # kept from one run for the next
        calls = {"amplify_shuffle": 0, "divergence_bounds": 0}

        def spy(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        points = [(100, 0.25, 1e-4), (150, 0.5, 1e-4), (200, 0.5, 1e-6)]
        want = "".join(json.dumps(dataclasses.asdict(certify_amplification(*point)),
                                  sort_keys=True) + "\n" for point in points)
        spy(cli, "amplify_shuffle")
        spy(divergence, "amplify_shuffle")
        spy(divergence, "divergence_bounds")
        grid = tmp_path / "grid.csv"
        grid.write_text("".join(f"{n},{eps0!r},{delta!r}\n" for n, eps0, delta in points))
        for run in (1, 2):
            code, out, _ = _run(capsys, ["verify-amplification", "--grid", str(grid)])
            assert code == 0
            assert out == want
            assert calls == {"amplify_shuffle": 3 * run, "divergence_bounds": 3 * run}

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

    # explicit ids, so that a case added anywhere in the table leaves every
    # other case its name
    @pytest.mark.parametrize("bad", [
        pytest.param(["--d", "4", "--k", "8"], id="bad0"),
        # a subnormal epsilon whose debiasing factor overflows
        pytest.param(["--d", "4", "--k", "1", "--epsilon", "1e-320"], id="bad1"),
        pytest.param(["--d", "4", "--k", "1", "--input-model", "step-function",
                      "--step-time", "0"], id="bad2"),
        pytest.param(["--d", "4", "--k", "1", "--input-model", "file",
                      "--input-path", "MISSING"], id="bad3"),
        # one file named twice is refused before either is touched
        pytest.param(["--d", "4", "--k", "1", "--input-model", "file", "--input-path",
                      "in.jsonl", "--reports-path", "in.jsonl", "--trials", "2"], id="bad4"),
        pytest.param(["--d", "4", "--k", "1", "--input-model", "file", "--input-path",
                      "in.jsonl", "--output", "in.jsonl"], id="bad5"),
        pytest.param(["--d", "4", "--k", "1", "--output", "reports.jsonl"], id="bad6"),
        # a normal epsilon whose estimates overflow: 3 levels times its factor
        pytest.param(["--d", "4", "--k", "1", "--epsilon", "3e-308"], id="bad7"),
        # a step time or an input path the input model would ignore
        pytest.param(["--d", "4", "--k", "1", "--step-time", "3"], id="bad8"),
        pytest.param(["--d", "4", "--k", "1", "--input-model", "worst-case-sparse",
                      "--step-time", "3"], id="bad9"),
        pytest.param(["--d", "4", "--k", "1", "--input-path", "in.jsonl"], id="bad10"),
        pytest.param(["--d", "4", "--k", "1", "--input-model", "step-function",
                      "--input-path", "in.jsonl"], id="bad11"),
        pytest.param(["--d", "4", "--k", "1", "--input-path", "MISSING", "--step-time", "3"],
                     id="bad12"),
        # a row whose boolean state would reach 2
        pytest.param(["--d", "4", "--k", "2", "--input-model", "file",
                      "--input-path", "twice.jsonl"], id="bad13"),
    ])
    def test_failed_simulate_keeps_existing_outputs(self, capsys, tmp_path, bad):
        files = {"run.json": b'{"earlier": "results"}\n',
                 "reports.jsonl": b'{"h": 1, "t": 1, "u": 1}\n',
                 "in.jsonl": b'{"x": [0, 1, 0, 0]}\n' * 4,
                 "twice.jsonl": b'{"x": [0, 1, 0, 0]}\n' * 3 + b'{"x": [1, 1, 0, 0]}\n'}
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
        pytest.param(["--n", "10", "--d", "8", "--k", "1", "--epsilon", "3e-308",
                      "--seed", "1"], id="argv0"),
        # the weight times n = 10 overflows
        pytest.param(["--n", "10", "--d", "1", "--k", "1", "--epsilon", "1e-307"], id="argv1"),
        # every estimate is finite, the error bound is not
        pytest.param(["--n", "1", "--d", "1", "--k", "1", "--epsilon", "2.5e-308",
                      "--beta", "1e-300"], id="argv2"),
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

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_simulate_seed_outside_64_bits_exits_2(self, capsys, seed):
        # the stream keys on 64 bits of the seed, so -1 would replay seed
        # 2^64 - 1, and 2^64 seed 0
        code, out, err = _run(capsys, ["simulate", "--n", "10", "--d", "4", "--k", "1",
                                       "--epsilon", "1.0", "--seed", seed])
        assert code == 2
        assert out == ""
        assert f"seed must be an integer in [0, {2 ** 64 - 1}], got {seed}" in err

    def test_simulate_invalid_params_exit_2(self, capsys):
        code, _, err = _run(capsys, [
            "simulate", "--n", "10", "--d", "6", "--k", "1", "--epsilon", "1.0",
        ])
        assert code == 2
        assert "power of two" in err

    def test_input_row_whose_state_leaves_0_1_exits_2(self, capsys, tmp_path):
        # states 2 and -1 are not boolean: each row is refused at its own line
        inputs = tmp_path / "inputs.jsonl"
        for rows, line in (('{"x": [1, 1, 0, 0]}\n{"x": [-1, 0, 0, 0]}\n', 1),
                           ('{"x": [1, -1, 0, 0]}\n{"x": [-1, 0, 0, 0]}\n', 2)):
            inputs.write_text(rows)
            code, out, err = _run(capsys, [
                "simulate", "--n", "2", "--d", "4", "--k", "2", "--epsilon", "1",
                "--input-model", "file", "--input-path", str(inputs),
            ])
            assert code == 2
            assert f"line {line}:" in err and "alternate" in err
            assert out == ""

    @pytest.mark.parametrize("mode", ["none", "post-shuffle"])
    def test_simulate_stderr_gives_stage_seconds(self, capsys, tmp_path, mode):
        # trial 0's line splits its seconds into four stages
        code, out, err = _run(capsys, [
            "simulate", "--n", "50", "--d", "8", "--k", "2", "--epsilon", "1.0",
            "--shuffle-mode", mode, "--trials", "2",
            "--reports-path", str(tmp_path / "reports.jsonl"),
        ])
        assert code == 0
        assert len(json.loads(out)["trials"]) == 2
        assert re.fullmatch(r"simulate: 2 trial\(s\) in \d+\.\d{3}s, median max error \S+, "
                            r"bound satisfied in \d+%; trial 0 emitted \d+ reports \(stages: "
                            r"inputs \d+\.\d{3}s, counts \d+\.\d{3}s, estimate \d+\.\d{3}s, "
                            r"dump \d+\.\d{3}s\), memory bound \d+ B, peak RSS \d+ KB\n", err)

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

    def test_input_file_with_too_many_rows_names_the_first_extra(self, capsys, tmp_path):
        inputs = tmp_path / "inputs.jsonl"
        inputs.write_text('{"x": [0, 1, 0, 0]}\n\n{"x": [1, 0, 0, 0]}\n{"x": 1}\n')
        code, out, err = _run(capsys, [
            "simulate", "--n", "2", "--d", "4", "--k", "1", "--epsilon", "1.0",
            "--input-model", "file", "--input-path", str(inputs),
        ])
        assert code == 2 and out == ""
        assert err == "error: line 4: expected 2 rows, found more\n"


# sha256 of the report dumps and estimate CSVs of a writer that formatted
# every report from its (h, t, u) values: the line table must leave every
# byte of them as it was. A post-shuffle dump is its histogram in (node,
# sign) cell order, and a dump's order changes no estimate. The small
# configs are cut into blocks (mode none) or writes (post-shuffle) of
# 4d = 64 reports, which the writer joins 50 at a time; the large ones use
# the default sizes, two blocks or writes each.
PINNED_DUMPS = {
    ("none", "small"): "d39fd07dc9ace308140e9c063df85512a0b466f9f030842881a3f12d11ef68ae",
    ("none", "large"): "8787a621037853db54e43062d42256b17ad8488ed7eac3f20b76768a0afc651e",
    ("post-shuffle", "small"):
        "36ff5eea6347b2b900298038a4887ebff6cadedeab83c72a6e961c42c7d8d52b",
    ("post-shuffle", "large"):
        "9e30a8eea59c8f9aa764b737dc723a8556f8a7c5606fde850b54dff0e0a386ed",
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
        assert reports.read_bytes().count(b"\n") == 1236  # about 20 blocks or writes
        truth = tmp_path / "truth.txt"
        truth.write_text("".join(f"{(i * 7) % 11 - 5}\n" for i in range(16)))
        estimates = tmp_path / "estimates.csv"
        code, _, _ = _run(capsys, ["estimate", "--reports", str(reports), "--d", d,
                                   "--k", "3", "--epsilon", "1.0", "--truth", str(truth),
                                   "--output", str(estimates)])
        assert code == 0
        assert _sha256(estimates) == PINNED_ESTIMATES[mode]

    @pytest.mark.parametrize("read_lines", [client_mod.READ_LINES, 4])
    def test_estimate_states_its_run_on_stderr_only(self, capsys, monkeypatch, tmp_path,
                                                    read_lines):
        # the CSV on stdout is the pinned one, byte for byte, whether the
        # d = 16 tree's lines are looked up or, past a cap of 4, converted;
        # either way the rows are the 62 distinct reports of the stream
        monkeypatch.setattr(harness, "ROWS", 1)
        monkeypatch.setattr(client_mod, "WRITE_ROWS", 50)
        reports = tmp_path / "reports.jsonl"
        code, _, _ = _run(capsys, ["simulate", "--n", "200", "--d", "16", "--k", "3",
                                   "--epsilon", "1.0", "--seed", "7",
                                   "--shuffle-mode", "post-shuffle",
                                   "--reports-path", str(reports),
                                   "--output", str(tmp_path / "run.json")])
        assert code == 0
        truth = tmp_path / "truth.txt"
        truth.write_text("".join(f"{(i * 7) % 11 - 5}\n" for i in range(16)))
        monkeypatch.setattr(client_mod, "READ_LINES", read_lines)
        code, out, err = _run(capsys, ["estimate", "--reports", str(reports), "--d", "16",
                                       "--k", "3", "--epsilon", "1.0", "--truth", str(truth)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ESTIMATES["post-shuffle"]
        # its one chunk is taken by the table, or past the cap converted whole
        took = "0 by table, 1" if read_lines == 4 else "1 by table, 0"
        assert re.fullmatch(r"estimate: 1236 reports read as 62 rows in \d+\.\d{3}s "
                            r"\(chunks: %s converted whole, 0 per row\), "
                            r"memory bound %d B, peak RSS \d+ KB\n"
                            % (took, harness._estimate_bytes(16)), err)

    @pytest.mark.parametrize("spelling,took", [
        ("dump", "{} by table, 0 converted whole, 0 per row"),
        ("crlf", "0 by table, 0 converted whole, {} per row"),
        ("past the cap", "0 by table, {} converted whole, 0 per row")])
    def test_estimate_names_the_reader_of_each_chunk(self, capsys, monkeypatch, tmp_path,
                                                      spelling, took):
        # every chunk of a post-shuffle dump is taken by the table; the dump
        # re-spelled with \r\n goes per row, and past a cap of 4 cells its
        # chunks are converted whole; the CSV is the same
        reports = tmp_path / "reports.jsonl"
        code, _, _ = _run(capsys, ["simulate", "--n", "2000", "--d", "64", "--k", "3",
                                   "--epsilon", "1.0", "--seed", "7",
                                   "--shuffle-mode", "post-shuffle",
                                   "--reports-path", str(reports),
                                   "--output", str(tmp_path / "run.json")])
        assert code == 0
        argv = ["estimate", "--reports", str(reports), "--d", "64", "--k", "3",
                "--epsilon", "1.0"]
        code, want, _ = _run(capsys, argv)
        if spelling == "crlf":
            reports.write_bytes(reports.read_bytes().replace(b"\n", b"\r\n"))
        elif spelling == "past the cap":
            monkeypatch.setattr(client_mod, "READ_LINES", 4)
        with open(reports, "rb") as fh:
            chunks = sum(1 for _ in client_mod._chunks(fh))
        code, out, err = _run(capsys, argv)
        assert code == 0 and out == want and chunks > 4
        assert "(chunks: %s)" % took.format(chunks) in err


def _change_rows(n, d):
    """JSON-lines change vectors for the file model: row i has i % 7
    alternating changes at steps spread over the horizon, so that rows with
    more than k changes are clipped."""
    rows = []
    for i in range(n):
        x = [0] * d
        times = sorted({(i * 3 + c * (d // 7 + 1)) % d for c in range(i % 7)})
        for c, t in enumerate(times):
            x[t] = 1 if c % 2 == 0 else -1
        rows.append(json.dumps({"x": x}) + "\n")
    return "".join(rows)


# sha256 of `simulate`'s stdout JSON and of its --output CSV, two trials
# each, as the trial and results-file code printed them before the collect
# path was rewritten in flat integer idioms: every byte must stay as it was.
# Each config is n, d, k, input model, then extra flags; each pin is the
# (JSON, CSV) pair.
PINNED_SIMULATE = {
    "sparse-none": ("de54e50c4947a2c1aec9b0ed7a9f39cf018f384567565f90479cff766b37e4cb",
                    "7c64ee8e35fbe240a1dca10592ee8ec9b336a8963e3119df4e9e59b9b583d9ca"),
    "sparse-post": ("1e91921b1f1743c2830cfeecaaa7028af4545815a22f1a90b55cfe11e29fc2ab",
                    "cfe7e6c51f142402bc6599ff97ac05cd57997360b95ab5390bc937f941cdfe63"),
    "random-none": ("7579cab153eb097c47a109d35052799bcb8af31fcb5c126e7a4d907897242d35",
                    "9e498c42ddc137d257e89f2b36bec3929db7c77274fb0194fac104c88919740a"),
    "random-post": ("ceb72a8713bc579ccb32aa6859131feba035959adeedffed8913a758a974c528",
                    "7e857b92a7cf5d0c45ef963f0cf67d85c00000824739f8ee58baa41fc7213b7a"),
    "step-none": ("a8a97c5be15b53ec0a4a9aa3723a4b586feec81d1f71fe74ff6a5532691f80f0",
                  "75a99b6bde1d6fbfd67a88c5c13db9b0d01d7fda6aa836036c1921982f8beadd"),
    "step-post": ("9ae975c96a0d6e5f7a7c7a62e96c39e159247e0b559c1e96142637fcd2fbe116",
                  "9ce11f0c02e75096fb840bbc04866b8e3d816c7c3dd038e73460b6801f378cfa"),
    "file-none": ("3a665c2ec9fdf6c21669e8eb3dff276f50a9b8cf741ee63cfcb07aa88dc34352",
                  "91785adf2d78c440d85f904b2b7e39a32aaa76c902d7eed3050fd71291731d5c"),
    "file-post": ("dfa4c23ca7b0bb3a2ff6fdb95b55f1b12f700469c3ed618d4e0229d4ecf27ab2",
                  "af9b413b12a25c741da071c991f92a1ced20731f51f8c5808fd0c6a1970258e3"),
    "random-k=d-none": ("6594195b4edf1086543ba70defcd59e89967b9bfb4443c3fad8eca4aabccedcd",
                        "d3cf7ae23220e3b4dd06ec2e1e0bdd32c95800442b537e8efadeaf7efa84c8a8"),
    "random-k=d-post": ("6418cac23fe2ac62adf3d0025d86ca44baa3c290c23777b721d49c2e4087828d",
                        "3170cb081769158a18e067d18d9924b0958ee72ab560bb67035b2f8e943e2ce2"),
}
SIMULATE_CONFIGS = [
    pytest.param(("300", "16", "3", "worst-case-sparse"), "none", id="sparse-none"),
    pytest.param(("300", "16", "3", "worst-case-sparse"), "post-shuffle", id="sparse-post"),
    pytest.param(("10000", "1024", "4", "random-changes"), "none", id="random-none"),
    pytest.param(("10000", "1024", "4", "random-changes"), "post-shuffle", id="random-post"),
    pytest.param(("200", "32", "2", "step-function", "--step-time", "5"), "none",
                 id="step-none"),
    pytest.param(("200", "32", "2", "step-function", "--step-time", "5"), "post-shuffle",
                 id="step-post"),
    pytest.param(("250", "16", "3", "file", "--input-path", "in.jsonl"), "none",
                 id="file-none"),
    pytest.param(("250", "16", "3", "file", "--input-path", "in.jsonl"), "post-shuffle",
                 id="file-post"),
    pytest.param(("400", "16", "16", "random-changes"), "none", id="random-k=d-none"),
    pytest.param(("400", "16", "16", "random-changes"), "post-shuffle", id="random-k=d-post"),
]


def _pinned_simulate_hashes(capsys, config, mode):
    """(sha256 of the stdout JSON, sha256 of the CSV) of one run of config,
    from the current directory, which holds the file model's input."""
    n, d, k, model, *extra = config
    Path("in.jsonl").write_text(_change_rows(int(n), int(d)))
    argv = ["simulate", "--n", n, "--d", d, "--k", k, "--epsilon", "1.0", "--seed", "21",
            "--trials", "2", "--input-model", model, "--shuffle-mode", mode, *extra]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    code, _, _ = _run(capsys, argv + ["--output", "x.csv"])
    assert code == 0
    return (hashlib.sha256(out.encode()).hexdigest(), _sha256(Path("x.csv")))


class TestPinnedSimulate:
    @pytest.mark.parametrize("config,mode", SIMULATE_CONFIGS)
    def test_json_and_csv_bytes(self, capsys, monkeypatch, tmp_path, request, config, mode):
        monkeypatch.chdir(tmp_path)  # config paths print relative to it
        name = request.node.callspec.id
        assert _pinned_simulate_hashes(capsys, config, mode) == PINNED_SIMULATE[name]


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

    def test_horizon_past_physical_memory_refused_before_the_reports_are_read(
            self, capsys, monkeypatch, tmp_path):
        # the tree alone over d = 2^50 would take 32 PiB
        monkeypatch.setattr(cli, "read_reports", lambda *a: pytest.fail("reports read"))
        reports = tmp_path / "reports.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n')
        code, out, err = _run(capsys, ["estimate", "--reports", str(reports),
                                       "--d", str(1 << 50), "--epsilon", "1.0", "--k", "1"])
        assert code == 2 and out == ""
        assert re.search(r"an estimate over horizon 1125899906842624 may hold \d+ bytes, "
                         r"more than the \d+ bytes of physical memory", err)

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

    # at d = 4 (1, 5, 1) lies past the horizon and (2, 3, 1) is misaligned
    @pytest.mark.parametrize("fourth,named", [((2, 3, 1), (4, "h=2, t=3, u=1")),
                                              ((1, 1, -1), (9, "h=1, t=5, u=1"))])
    def test_earliest_stray_line_is_named_across_the_cap(self, capsys, monkeypatch,
                                                         tmp_path, fourth, named):
        # chunks of 64 bytes hold two or three lines, so line 4 is read in
        # the second. The d = 4 tree has 14 cells: under a cap of 14 the
        # chunks of its lines are looked up in its table and a chunk with a
        # stray line is converted whole; under a cap of 6 every chunk is.
        # The stray (2, 3, 1) comes again after (1, 5, 1), and the earliest
        # stray line is named either way
        rows = [(1, 1, 1), (1, 2, -1), (1, 1, 1), fourth, (1, 3, 1), (1, 4, 1), (2, 2, 1),
                (3, 4, -1), (1, 5, 1), (2, 3, 1), (1, 1, 1)]
        reports = tmp_path / "reports.jsonl"
        reports.write_text("".join(client_mod.REPORT_LINE % row for row in rows))
        monkeypatch.setattr(client_mod, "READ_BYTES", 64)
        monkeypatch.setattr(client_mod, "parse_rows",
                            lambda *a: pytest.fail("per-row parser called"))
        for read_lines in (14, 6):
            monkeypatch.setattr(client_mod, "READ_LINES", read_lines)
            code, out, err = self._estimate(capsys, reports)
            assert code == 2 and out == ""
            assert err == ("error: line %d: report (%s) addresses no node of the tree over "
                           "horizon 4\n" % named)

    def test_truth_with_the_wrong_row_count_exits_2(self, capsys, tmp_path):
        reports = tmp_path / "reports.jsonl"
        reports.write_text('{"h": 1, "t": 1, "u": 1}\n')
        truth = tmp_path / "truth.txt"
        truth.write_text("0\n1\n")
        code, _, err = self._estimate(capsys, reports, truth)
        assert code == 2
        assert "truth file has 2 rows, expected 4" in err
        # a row past d is named by its line, before the rest is read
        truth.write_text("0\n1\n2\n\n3\n4\n")
        code, _, err = self._estimate(capsys, reports, truth)
        assert code == 2
        assert err == "error: line 6: truth file has more than 4 rows\n"

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


# Each reader's input, with a slot on line 2 and the value that makes it
# valid there, and the argv that reads it as the file at {}, with the valid
# report file at {reports}.
_HUGE_INPUTS = {
    "report file": (b'{"h": 1, "t": 1, "u": 1}\n{"h": 1, "t": %s, "u": 1}\n', b"1",
                    "estimate --reports {} --d 4 --epsilon 1.0 --k 1"),
    "change-vector file": (b'{"x": [0, 1, 0, 0]}\n{"x": [0, %s, 0, 0]}\n', b"1",
                           "simulate --n 2 --d 4 --k 1 --epsilon 1.0 --input-model file "
                           "--input-path {}"),
    "truth file": (b"1\n%s\n1\n1\n", b"1",
                   "estimate --reports {reports} --d 4 --epsilon 1.0 --k 1 --truth {}"),
    "grid row": (b"100,0.25,1e-4\n%s,0.25,1e-4\n", b"100", "verify-amplification --grid {}"),
}
# An integer of 5000 digits, past the 4300 that int() converts.
_HUGE = b"1" * 5000
# Hostile inputs, each a function of a reader's (template, valid value).
_HOSTILE = {
    "lone-cr": lambda text, valid: (text % valid).replace(b"\n", b"\r"),
    "invalid-utf8": lambda text, valid: text % b"\xff\xfe",
    "nul": lambda text, valid: text % (valid + b"\x00"),
    "bom": lambda text, valid: b"\xef\xbb\xbf" + text % valid,
    "2^63": lambda text, valid: text % b"9223372036854775808",
    "1e400": lambda text, valid: text % b"1e400",
    "empty": lambda text, valid: b"",
    "long-number": lambda text, valid: text % (b"1" * (client_mod.READ_BYTES + 1)),
    "long-blanks": lambda text, valid: text % (b" " * client_mod.READ_BYTES + valid),
}


def _read_hostile(capsys, tmp_path, reader, data):
    argv = _HUGE_INPUTS[reader][2]
    reports = tmp_path / "reports.jsonl"
    reports.write_text('{"h": 1, "t": 1, "u": 1}\n')
    path = tmp_path / "input"
    path.write_bytes(data)
    return _run(capsys, argv.format(path, reports=reports).split())


@pytest.mark.parametrize("reader", _HUGE_INPUTS)
def test_a_5000_digit_integer_exits_2_naming_its_line(capsys, tmp_path, reader):
    # every reader refuses the line with exit code 2, where int() alone would
    # raise a ValueError that ends the run in a traceback
    code, out, err = _read_hostile(capsys, tmp_path, reader, _HUGE_INPUTS[reader][0] % _HUGE)
    assert code == 2 and out == ""
    assert "line 2" in err and "Traceback" not in err


@pytest.mark.parametrize("hostile", _HOSTILE)
@pytest.mark.parametrize("reader", _HUGE_INPUTS)
def test_hostile_input_exits_0_or_2_with_a_short_message(capsys, tmp_path, reader, hostile):
    # whatever a file holds, a reader takes it or refuses it with exit code
    # 2 and a message that names a line wherever the file has one and
    # quotes at most a bounded part of it
    text, valid, _ = _HUGE_INPUTS[reader]
    data = _HOSTILE[hostile](text, valid)
    _check_outcome(data, *_read_hostile(capsys, tmp_path, reader, data))


# Runs of bytes a file may hold after a valid prefix: any short run, line
# ends of every spelling, a NUL, an invalid UTF-8 byte, and lines longer
# than READ_BYTES.
_HOSTILE_TAILS = st.lists(
    st.binary(max_size=12)
    | st.sampled_from([b"\r", b"\n", b"\r\n", b"\x00", b"\xff", b"1", b",", b" "])
    | st.sampled_from([b" ", b"1", b"\xff"]).map(lambda c: c * (client_mod.READ_BYTES + 1)),
    max_size=12).map(b"".join)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(list(_HUGE_INPUTS)), _HOSTILE_TAILS)
@example("report file", b"\r" + b" " * (client_mod.READ_BYTES + 1) + b"\r\x00\r")
@example("change-vector file", b"\r\n" + b"1" * (client_mod.READ_BYTES + 1))
@example("truth file", b"1")  # a row past d
@example("grid row", b"\x00\xff\r,")
def test_any_bytes_after_a_valid_prefix_exit_0_or_2(capsys, tmp_path, reader, tail):
    # capsys and tmp_path are shared by the examples: each run reads its
    # own output and rewrites the files it reads
    text, valid, _ = _HUGE_INPUTS[reader]
    data = text % valid + tail
    _check_outcome(data, *_read_hostile(capsys, tmp_path, reader, data))


def _check_outcome(data, code, out, err):
    """A run that read data either took it (exit code 0) or refused it with
    exit code 2 and one short error line, naming a line if data has one."""
    assert code in (0, 2) and "Traceback" not in err and len(err) <= 500
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert len(err) <= 160
        if data:
            assert re.search(r"\bline \d+: ", err)


def _python(code):
    """Run code in a fresh interpreter that imports this package; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=300).stdout


def test_closed_stdout_ends_quietly(tmp_path):
    # a d = 2^16 CSV is far more than a pipe holds, so the writer meets the
    # closed pipe while it writes
    reports = tmp_path / "reports.jsonl"
    reports.write_text('{"h": 1, "t": 1, "u": 1}\n')
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "ldpshuffle.cli", "estimate", "--reports",
                             str(reports), "--d", "65536", "--epsilon", "1", "--k", "1"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"t,f_tilde\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_cli_import_loads_no_scipy_module():
    # every CLI run pays this import in its setup time, and scipy.special
    # alone took longer to import than the rest of the program's startup
    loaded = _python("import sys, ldpshuffle.cli\n"
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded.strip() == "[]"


def test_simulate_and_estimate_load_no_masked_arrays(tmp_path):
    # numpy.ma took about 9 ms of a first op's setup; the summary's median
    # and quantiles, which loaded it, are computed without it
    code = f"""
import sys
from ldpshuffle import cli
common = ["--d", "8", "--k", "1", "--epsilon", "1.0"]
assert cli.main(["simulate", "--n", "20", *common, "--trials", "3",
                 "--reports-path", {str(tmp_path / "r.jsonl")!r}]) == 0
assert cli.main(["estimate", "--reports", {str(tmp_path / "r.jsonl")!r}, *common]) == 0
print("numpy.ma" in sys.modules, file=sys.stderr)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert run.stderr.strip().splitlines()[-1] == "False"


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


def _vmhwm_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_peak_rss_is_vmhwm_else_ru_maxrss(monkeypatch):
    # both only rise, so a value read between two readings lies between them
    before = _vmhwm_kb()
    peak = cli._peak_rss_kb()
    assert before <= peak <= _vmhwm_kb()

    def unreadable(*args, **kwargs):
        raise OSError("no /proc")
    monkeypatch.setattr(cli.os, "open", unreadable)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak = cli._peak_rss_kb()
    monkeypatch.undo()
    assert before <= peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
