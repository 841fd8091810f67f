"""Simulation driver: synthetic populations through the full
client -> (optional shuffle) -> server pipeline, measured against the
closed-form error bound.

Reproducibility contract: every trial draws from its own counter-based
stream keyed by (seed, trial), consumed in a fixed order that depends on
the shuffle mode. Both modes start with input generation (k integer draws
over all clients for the random-changes model), the per-client change
index and the per-client level. Under shuffle mode none, where the server
sees each client's linked reports, one report coin per emitted report
follows in client-major order; coins are drawn a block of about
max(ROWS, 4d) reports at a time, and Philox yields the same values in
chunks as in one draw, so no mode-none output depends on ROWS. Under
post-shuffle, where the server sees only the histogram of reports, three
binomial vectors over the tree's nodes draw that histogram directly
(`_draw_counts`), and last, only when trial 0 is written out, per chunk of
max(ROWS, 4d) reports one binomial split of every (node, sign) cell and
one permutation. Equal configs give equal bits.
"""

import dataclasses
import json
import math
import operator
import os
import string
import time
from dataclasses import dataclass

import numpy as np

from .aggregator import SumTree, accumulate_arrays, estimate_marginals, estimate_weight
from .client import (check_distinct_paths, json_lines, line_table, open_input, open_output,
                     write_report_arrays)
from .core import check_count, check_real, level_count, rr_probability, scale_factor
from .errors import InvalidParameterError, ParseError
from .kernels import emit_reports
from .randomizer import RandomnessStream

INPUT_MODELS = ("worst-case-sparse", "random-changes", "step-function", "file")
SHUFFLE_MODES = ("none", "post-shuffle")

# a trial's one report buffer holds about max(ROWS, 4d) reports: the
# mode-none emission block, on which no output depends, and the post-shuffle
# chunk, which sets the shuffle draws
ROWS = 1 << 16


def check_input_domain(n, d, k, input_model, step_time=None, input_path=None):
    """The input domain `SimulationConfig.validate` and `generate_inputs`
    share: n >= 1 clients, a power-of-two horizon d, a change budget
    1 <= k <= d, a known input model, a step time in [1, d] only for the
    step-function model and an input path for the file model and only for
    it. Returns (n, d, k) as ints."""
    n = check_count(n, "n")
    level_count(d)
    k = check_count(k, "change budget k", high=d)
    if input_model not in INPUT_MODELS:
        raise InvalidParameterError(
            f"unknown input model {input_model!r}; pick from {INPUT_MODELS}"
        )
    if step_time is not None:
        if input_model != "step-function":
            raise InvalidParameterError(f"a step time is only for the step-function "
                                        f"input model, not {input_model!r}")
        check_count(step_time, "step time", high=d)
    if input_model == "file" and not input_path:
        raise InvalidParameterError("file input model needs input_path")
    if input_model != "file" and input_path is not None:
        raise InvalidParameterError(f"an input path is only for the file input model, "
                                    f"not {input_model!r}")
    return n, int(d), k


@dataclass
class SimulationConfig:
    n: int
    d: int
    k: int
    epsilon: float
    beta: float = 1.0 / 3.0
    trials: int = 1
    seed: int = 0
    input_model: str = "random-changes"
    shuffle_mode: str = "none"
    output_path: str = None
    step_time: int = None          # step-function model: common flip time
    input_path: str = None         # file model: JSON-lines change vectors
    reports_path: str = None       # dump the trial-0 report stream here

    def validate(self):
        check_input_domain(self.n, self.d, self.k, self.input_model,
                           self.step_time, self.input_path)
        check_real(self.beta, "beta", 0.0, 1.0)
        check_count(self.trials, "trials")
        if self.shuffle_mode not in SHUFFLE_MODES:
            raise InvalidParameterError(
                f"unknown shuffle mode {self.shuffle_mode!r}; pick from {SHUFFLE_MODES}"
            )
        check_distinct_paths((self.input_path, self.output_path, self.reports_path),
                             "input, output and reports")
        need = trial_bytes(self.n, self.d, self.k, bool(self.reports_path))
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > memory:
            raise InvalidParameterError(f"a trial may hold {need} bytes, more than "
                                        f"the {memory} bytes of physical memory")
        # after the memory check, which bounds n; an estimate sums at most n reports
        estimate_weight(self.epsilon, self.k, self.d, self.n)
        theorem_error_bound(self.n, self.d, self.k, self.epsilon, self.beta)


@dataclass
class SimulationResult:
    """One trial's error profile against the closed-form bound."""

    trial: int
    max_abs_error: float
    errors: np.ndarray
    theorem_bound: float
    bound_satisfied: bool
    wall_time: float
    clipped_clients: int = 0
    reports: int = 0               # reports the trial emitted


def theorem_error_bound(n, d, k, epsilon, beta):
    """High-probability cap c_eps * k * (log2 d)^(3/2) * sqrt(n log(2d/beta))
    on the worst marginal error."""
    n, k = check_count(n, "n"), check_count(k, "change budget k")
    beta = check_real(beta, "beta", 0.0, 1.0)
    log2d = max(level_count(d) - 1, 1)  # log2(d), taken as 1 at d = 1
    ratio = 2.0 * d / beta  # inf at a beta below about 2d / 1.8e308
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(2.0 * d) - math.log(beta)
    bound = scale_factor(epsilon) * k * log2d ** 1.5 * math.sqrt(n * log_ratio)
    if bound < math.inf:
        return bound
    raise InvalidParameterError(f"epsilon={epsilon!r} is so small that the error bound overflows")


def read_change_vectors(path, n, d, k):
    """Read JSON-lines rows {"x": [...]} into padded (n, k) change lists.

    Returns (times, values, number of clipped rows): row i holds the
    1-based times and the values of client i's changes in time order,
    padded with zeros. A row with more than k changes is clipped: it keeps
    its first k. Malformed rows raise ParseError with their line number.
    """
    times = np.zeros((n, k), dtype=np.int64)
    values = np.zeros((n, k), dtype=np.int64)
    clipped = 0
    rows = 0
    with open_input(path) as fh:
        for lineno, row in json_lines(fh):
            if not isinstance(row, dict) or "x" not in row:
                raise ParseError('expected an object with an "x" array', lineno)
            x = row["x"]
            if not isinstance(x, list) or len(x) != d:
                raise ParseError(f'"x" must be a list of length {d}', lineno)
            if any(type(v) is not int or v not in (-1, 0, 1) for v in x):
                raise ParseError('"x" entries must be integers in {-1, 0, 1}', lineno)
            x = np.asarray(x, dtype=np.int64)
            cols = np.flatnonzero(x)
            if len(cols) > k:
                cols = cols[:k]
                clipped += 1
            if rows < n:
                times[rows, :len(cols)] = cols + 1
                values[rows, :len(cols)] = x[cols]
            rows += 1
    if rows != n:
        raise ParseError(f"expected {n} rows, found {rows}")
    return times, values, clipped


def _floyd_subsets(n, d, k, rng):
    """One uniform k-subset of [0, d) per row, by Floyd's algorithm run on
    all n rows at once: k integer draws over the whole population."""
    cols = np.empty((n, k), dtype=np.int64)
    for i, j in enumerate(range(d - k, d)):
        pick = rng.integers(0, j + 1, size=n)
        taken = (cols[:, :i] == pick[:, None]).any(axis=1)
        cols[:, i] = np.where(taken, j, pick)
    return cols


def generate_inputs(n, d, k, input_model, rng, step_time=None, input_path=None):
    """Synthesize every client's changes under one of the input models.

    Returns (times, values, clipped): padded (n, k) arrays holding each
    client's change times (1-based) and values in time order, zeros past
    its last change, and the number of clipped rows (only the file model
    can clip). Every row keeps at most k changes and a boolean state
    trajectory.
    """
    n, d, k = check_input_domain(n, d, k, input_model, step_time, input_path)
    signs = np.where(np.arange(k) % 2 == 0, 1, -1)

    if input_model == "worst-case-sparse":
        # every client changes at the same k evenly spaced timesteps,
        # starting with +1, so whole stretches carry marginal n
        times = (np.arange(k) * d) // k + 1
        return np.tile(times, (n, 1)), np.tile(signs, (n, 1)), 0

    if input_model == "random-changes":
        times = np.sort(_floyd_subsets(n, d, k, rng), axis=1) + 1
        return times, np.tile(signs, (n, 1)), 0

    if input_model == "step-function":
        t0 = max(1, d // 2) if step_time is None else int(step_time)
        times = np.zeros((n, k), dtype=np.int64)
        values = np.zeros((n, k), dtype=np.int64)
        times[:, 0] = t0
        values[:, 0] = 1
        return times, values, 0

    return read_change_vectors(input_path, n, d, k)  # the file model


def trial_bytes(n, d, k, dump=False):
    """An upper bound on the bytes a trial holds: its change lists and
    per-client arrays, one report buffer of at most 5/4 max(ROWS, 4d)
    reports at 12 words each (a mode-none block holds under max(ROWS, 4d)
    + d; a post-shuffle chunk is binomial, past 5/4 of its mean bound with
    probability below e^-600), the tree and the writer. A trial that dumps
    its reports also holds a line table: a slot for each of the 2(2d - 1)
    cells, and a str of at most 112 bytes for each cell that holds one of
    its at most n d reports."""
    table = 4 * d + 14 * min(4 * d, n * d) if dump else 0
    return 8 * (4 * n * k + 12 * n + 15 * max(ROWS, 4 * d) + 40 * d + table) + (4 << 20)


def run_trial(config, trial):
    """Run one seeded trial; returns (estimates, truth, reports emitted,
    clipped). Under shuffle mode none each block of clients is emitted,
    folded into the tree and dropped, and trial 0 writes its stream to
    config.reports_path, if set, block by block. Under post-shuffle the
    tree's histogram is drawn directly (`_draw_counts`) and trial 0's
    stream is drawn from it (`_write_shuffled`).
    """
    stream = RandomnessStream(config.seed, trial)
    times, values, clipped = generate_inputs(config.n, config.d, config.k,
                                             config.input_model, stream,
                                             step_time=config.step_time,
                                             input_path=config.input_path)
    span = config.d + 1
    truth = np.cumsum(np.bincount(times[values > 0], minlength=span)
                      - np.bincount(times[values < 0], minlength=span))[1:]

    target = stream.integers(1, config.k + 1, size=config.n)
    levels = stream.integers(1, level_count(config.d) + 1, size=config.n)
    # the sampled change is entry target-1 of the client's list; a padding
    # entry (time 0) means the client has no change to report
    rows = np.arange(config.n)
    signal_t = times[rows, target - 1]
    signal_v = values[rows, target - 1]
    del times, values, rows, target  # so the count draw does not stack on them

    truth_prob = rr_probability(config.epsilon)
    dump = config.reports_path if trial == 0 else None
    rows = max(ROWS, 4 * config.d)
    if config.shuffle_mode == "post-shuffle":
        tree = _draw_counts(signal_t, signal_v, levels, truth_prob, config.d, stream)
        if dump:
            _write_shuffled(dump, tree, stream, rows)
    else:
        ends = np.cumsum(config.d >> (levels - 1))
        # block i holds the clients whose last report falls in (i rows, (i+1) rows]
        cuts = np.searchsorted(ends, np.arange(0, ends[-1], rows), side="right").tolist()
        tree = SumTree(config.d)
        lines = None  # the dump's line table, one for the whole file
        for lo, hi in zip(cuts, cuts[1:] + [config.n]):
            count = int(ends[hi - 1] - (ends[lo - 1] if lo else 0))
            reports = emit_reports(signal_t[lo:hi], signal_v[lo:hi], levels[lo:hi],
                                   stream.uniform(size=count), truth_prob, config.d)
            empty = tree.counts.ravel() == 0 if dump else None
            cells = tree.add(*reports)
            if dump:
                # format only the cells that this block is the first to fill
                fresh = np.flatnonzero(empty & (tree.counts.ravel() > 0))
                lines = line_table(tree, fresh, lines)
                write_report_arrays(dump, cells, lines, mode="a" if lo else "w")
            del reports, cells  # so that no two blocks are held at once
    estimates = estimate_marginals(tree, config.epsilon, config.k)
    return estimates, truth, int(tree.counts.sum()), clipped


def _draw_counts(signal_t, signal_v, levels, truth_prob, d, stream):
    """The tree of a shuffled trial, drawn without emitting a report.

    A client at level h puts one report on every level-h node: a fair sign,
    except on the node its signal report lands on (the first at or after
    signal_t), which carries randomized response of signal_v. So a node
    holding c reports, a of them +1 signals and b of them -1 signals, has
    Bin(c - a - b, 1/2) + Bin(a, p) + Bin(b, 1 - p) +1 reports, which is
    the emitted stream's histogram in distribution, in O(n + d) time.
    """
    has = signal_t > 0
    h = levels[has]
    tree = accumulate_arrays(h, (((signal_t[has] - 1) >> (h - 1)) + 1) << (h - 1),
                             signal_v[has], d)
    b, a = tree.counts.T
    c = np.bincount(levels, minlength=tree.levels + 1)[tree.nodes()[0]]
    gen = stream.generator
    plus = (gen.binomial(c - a - b, 0.5) + gen.binomial(a, truth_prob)
            + gen.binomial(b, 1.0 - truth_prob))
    tree.counts = np.stack([c - plus, plus], axis=1)
    return tree


def _write_shuffled(path, tree, stream, rows):
    """Write a uniform arrangement of the reports in tree. Each report goes
    to a uniform one of ceil(total / rows) chunks by binomial splits of
    every (node, sign) cell; each chunk is then permuted, so that the
    concatenation is a uniform permutation. The chunks are written as
    cells, through one line table of the cells that hold a report."""
    counts = tree.counts.ravel()  # per node: its -1 reports, then its +1 reports
    lines = line_table(tree, np.flatnonzero(counts))
    chunks = -(-int(counts.sum()) // rows)
    for left in range(chunks, 0, -1):
        take = stream.generator.binomial(counts, 1.0 / left) if left > 1 else counts
        counts = counts - take
        cells = np.repeat(np.arange(len(take)), take)
        write_report_arrays(path, cells[stream.permutation(len(cells))], lines,
                            mode="w" if left == chunks else "a")


def simulate(config):
    """Run every trial of a configuration; deterministic given the seed."""
    config.validate()
    bound = theorem_error_bound(config.n, config.d, config.k,
                                config.epsilon, config.beta)
    results = []
    for trial in range(config.trials):
        start = time.perf_counter()
        estimates, truth, reports, clipped = run_trial(config, trial)
        errors = np.abs(truth - estimates)
        max_err = float(errors.max())
        results.append(SimulationResult(
            trial=trial, max_abs_error=max_err, errors=errors, theorem_bound=bound,
            bound_satisfied=bool(max_err <= bound), wall_time=time.perf_counter() - start,
            clipped_clients=clipped, reports=reports))
    return results


# ---------------------------------------------------------------------------
# Result serialization. Wall times vary between executions, so they are
# reported in memory but never written to the canonical output files; that
# keeps identical (config, seed) runs byte-identical. Max-error
# distributions are heavy tailed, so the summary quotes the median and
# quantiles rather than a mean.
# ---------------------------------------------------------------------------

def summarize(results):
    errs = np.array([r.max_abs_error for r in results])
    return {
        "trials": len(results),
        "median_max_abs_error": float(np.median(errs)),
        "q10_max_abs_error": float(np.quantile(errs, 0.10)),
        "q90_max_abs_error": float(np.quantile(errs, 0.90)),
        "bound_satisfied_fraction": float(np.mean([r.bound_satisfied for r in results])),
        "theorem_bound": results[0].theorem_bound,
        "clipped_clients": int(results[0].clipped_clients),
    }


def results_to_json(config, results):
    """Canonical JSON text for a run; every float prints as its exact repr."""
    payload = {
        "config": dataclasses.asdict(config),
        "summary": summarize(results),
        "trials": [
            {
                "trial": r.trial,
                "max_abs_error": r.max_abs_error,
                "theorem_bound": r.theorem_bound,
                "bound_satisfied": r.bound_satisfied,
                "errors": [float(e) for e in r.errors],
            }
            for r in results
        ],
    }

    # default: a numpy integer in the config prints as a plain int
    return json.dumps(payload, sort_keys=True, indent=2,
                      default=operator.index) + "\n"


# A results CSV row, formatted from the fields of the config and of one
# trial's result; its header is the row's field names.
CSV_ROW = ("{trial},{n},{d},{k},{epsilon:.17g},{beta:.17g},{seed},{input_model},"
           "{shuffle_mode},{max_abs_error:.17g},{theorem_bound:.17g},{bound_satisfied:d}\n")


def results_to_csv(config, results):
    """One CSV row per trial for sweep-style post-processing."""
    head = ",".join(name for _, name, _, _ in string.Formatter().parse(CSV_ROW) if name)
    return head + "\n" + "".join(CSV_ROW.format_map(vars(config) | vars(r)) for r in results)


def write_results(config, results, path):
    """Write results to path: CSV when it ends in .csv, JSON otherwise."""
    text = results_to_csv(config, results) if str(path).endswith(".csv") \
        else results_to_json(config, results)
    with open_output(path) as fh:
        fh.write(text)
