"""The three benchmark workloads.

Each workload drives `ldpshuffle.cli.main` in this process. `op(i)` runs
one operation, returns the seconds of each timed part, and checks the
output outside the timed parts. Inputs come only from the seed.
"""

import contextlib
import csv
import io
import json
import os
import random
import time

import numpy as np

from ldpshuffle import cli, harness
from ldpshuffle.divergence import worst_case_divergence

# worst_case_divergence(n, eps0=0.5, eps=0.05) from the O(n^3) numpy scan,
# kept to check the oracle the certify op runs. At the accountant's claimed
# epsilon the exact deltas are 1e-60 to 1e-198 and carry no signal, so the
# check uses a small epsilon where delta is large enough to compare.
REFERENCE_DELTAS = {1000: 4.782917680945449e-06, 2000: 1.63876342395557e-08}
REFERENCE_EPS0 = 0.5
REFERENCE_EPS = 0.05
REFERENCE_RTOL = 1e-9


class OpFailed(Exception):
    """An operation's output failed its correctness check."""


def _call(argv):
    """Run the CLI in-process; returns its exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise OpFailed(f"exit code {code} from {argv[0]}")
    return out.getvalue()


def _timed(argv):
    start = time.perf_counter()
    out = _call(argv)
    return time.perf_counter() - start, out


class Collect:
    """One long-horizon `simulate` trial with post-shuffle, no file I/O."""

    parts = ("trial_s",)

    def __init__(self, seed, workdir, smoke=False):
        self.n, self.d = (500, 64) if smoke else (10000, 1024)
        self.base = seed * 1_000_000
        self.output = os.path.join(workdir, "collect.json")

    def _argv(self, seed):
        return ["simulate", "--n", str(self.n), "--d", str(self.d), "--k", "4",
                "--epsilon", "1.0", "--input-model", "random-changes",
                "--shuffle-mode", "post-shuffle", "--trials", "1",
                "--seed", str(seed), "--output", self.output]

    def op(self, i, around=contextlib.nullcontext):
        seed = self.base + i
        with around():
            elapsed, _ = _timed(self._argv(seed))
        with open(self.output, encoding="utf-8") as fh:
            result = json.load(fh)
        trial = result["trials"][0]
        if result["config"]["seed"] != seed or len(trial["errors"]) != self.d:
            raise OpFailed("results file does not match the op")
        if not trial["max_abs_error"] <= trial["theorem_bound"]:
            raise OpFailed(f"max error {trial['max_abs_error']} above the bound")
        return {"trial_s": elapsed}

    warm_up = op


class Certify:
    """One `verify-amplification --grid` pass over a fixed (n, eps0) grid."""

    parts = ("certify_s",)
    DELTA = 1e-4

    def __init__(self, seed, workdir, smoke=False):
        self.ns = (50, 100, 150) if smoke else (1000, 2000, 3000)
        self.points = [(n, eps0) for n in self.ns for eps0 in (0.25, 0.5)]
        # the seed only orders the grid; every pass covers the same points
        random.Random(seed).shuffle(self.points)
        self.grid = os.path.join(workdir, "grid.csv")
        with open(self.grid, "w", encoding="utf-8") as fh:
            for n, eps0 in self.points:
                fh.write(f"{n},{eps0!r},{self.DELTA!r}\n")
        self.warm_grid = os.path.join(workdir, "warm.csv")
        with open(self.warm_grid, "w", encoding="utf-8") as fh:
            fh.write(f"{self.ns[0]},0.5,{self.DELTA!r}\n")

    def _check(self, out, points):
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        if [(r["n"], r["eps0"]) for r in records] != points:
            raise OpFailed("grid records do not match the grid")
        failed = [(r["n"], r["eps0"]) for r in records if r["passed"] is not True]
        if failed:
            raise OpFailed(f"certification failed at {failed}")

    def op(self, i, around=contextlib.nullcontext):
        with around():
            elapsed, out = _timed(["verify-amplification", "--grid", self.grid])
        self._check(out, self.points)
        return {"certify_s": elapsed}

    def warm_up(self, i, around=contextlib.nullcontext):
        with around():
            _, out = _timed(["verify-amplification", "--grid", self.warm_grid])
        self._check(out, [(self.ns[0], 0.5)])
        return {}

    @staticmethod
    def check_reference():
        """Raise OpFailed unless the oracle reproduces the recorded deltas."""
        for n, want in REFERENCE_DELTAS.items():
            got = worst_case_divergence(n, REFERENCE_EPS0, REFERENCE_EPS)
            if not abs(got - want) <= REFERENCE_RTOL * want:
                raise OpFailed(f"worst_case_divergence({n}) = {got!r}, want {want!r}")


class ReportIO:
    """Dump one short-horizon trial's reports as JSONL, then `estimate` them."""

    parts = ("dump_s", "estimate_s")

    def __init__(self, seed, workdir, smoke=False):
        self.n, self.d = (500, 16) if smoke else (5000, 64)
        self.base = seed * 1_000_000
        self.reports = os.path.join(workdir, "reports.jsonl")
        self.truth = os.path.join(workdir, "truth.txt")
        self.results = os.path.join(workdir, "dump.json")
        self.estimates = os.path.join(workdir, "estimates.csv")

    def op(self, i, around=contextlib.nullcontext):
        seed = self.base + i
        config = harness.SimulationConfig(
            n=self.n, d=self.d, k=4, epsilon=1.0, seed=seed,
            shuffle_mode="post-shuffle")
        want_est, want_truth, _, _ = harness.run_trial(config, 0)
        np.savetxt(self.truth, want_truth, fmt="%d")
        common = ["--d", str(self.d), "--k", "4", "--epsilon", "1.0"]
        with around():
            dump_s, _ = _timed(["simulate", "--n", str(self.n), *common,
                                "--shuffle-mode", "post-shuffle", "--trials", "1",
                                "--seed", str(seed), "--reports-path", self.reports,
                                "--output", self.results])
            estimate_s, _ = _timed(["estimate", "--reports", self.reports, *common,
                                    "--truth", self.truth, "--output", self.estimates])
        with open(self.estimates, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        got_est = np.array([float(r["f_tilde"]) for r in rows])
        got_truth = np.array([int(r["f_true"]) for r in rows])
        if not (np.array_equal(got_est, want_est) and np.array_equal(got_truth, want_truth)):
            raise OpFailed("estimate CSV differs from run_trial")
        return {"dump_s": dump_s, "estimate_s": estimate_s}

    warm_up = op


WORKLOADS = {"collect": Collect, "certify": Certify, "report-io": ReportIO}
