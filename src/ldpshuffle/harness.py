"""Simulation driver: synthetic populations through the full
client -> (optional shuffle) -> server pipeline, measured against the
closed-form error bound.

Each client is exactly eps/2-LDP, not just eps-LDP: its transcript holds
one randomized-response report, true with probability `rr_probability(eps)`
= e^(eps/2) / (1 + e^(eps/2)), and fair signs otherwise, at a level and
target change that do not depend on its input, so two inputs' transcript
probabilities differ by at most p / (1 - p) = e^(eps/2), a ratio two inputs
with different signal nodes attain (the exact enumeration in the tests
pins it).

Reproducibility contract: every trial draws from its own counter-based
stream keyed by (seed, trial), consumed in a fixed order that depends on
the shuffle mode. Both modes start with input generation (k integer draws
over all clients for the random-changes model), the per-client change
index and the per-client level. Under shuffle mode none, where the server
sees each client's linked reports, one report coin per emitted report
follows in client-major order; coins are drawn a block of about
max(ROWS, 4d) reports at a time, and Philox yields the same values in
chunks as in one draw. Under post-shuffle, where the server sees only the
histogram of reports, three binomial vectors over the tree's nodes draw it
directly (`_draw_counts`), the last draw: trial 0's dump is that histogram
in (node, sign) cell order (`_write_sorted`), a function of the multiset
the shuffler releases, so it leaks nothing more. No output depends on ROWS.
Equal configs give equal bits. A seed is an integer in
[0, 2^64), the stream's key: the stream refuses any other rather than
replay another seed's trials, and `validate` refuses it before any trial
runs.

The trial's array work is in flat integer idioms: the change subsets
come from Floyd's algorithm over a (k, n) layout, the truth from one
bincount over (time, sign) bins, each client's sampled change from a
flat index into the C-ordered (n, k) change lists. The results file is
the pure-Python JSON encoder's indented document with each trial's d
errors printed by the C encoder in the same layout, byte for byte the
text the pure-Python encoder prints for them.
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
from .client import (READ_BYTES, READ_LINES, LineTable, check_distinct_paths, json_lines,
                     open_input, open_output, write_report_arrays)
from .core import check_count, check_real, level_count, rr_probability, scale_factor
from .errors import InvalidParameterError, ParseError
from .kernels import emit_reports
from .randomizer import RandomnessStream

INPUT_MODELS = ("worst-case-sparse", "random-changes", "step-function", "file")
SHUFFLE_MODES = ("none", "post-shuffle")

# a trial holds about max(ROWS, 4d) reports at a time, in an emission block
# (mode none) or a dump's write (post-shuffle); no output depends on it
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
        # the stream's own check, before any trial runs
        check_count(self.seed, "seed", low=0, high=2 ** 64 - 1)
        if self.shuffle_mode not in SHUFFLE_MODES:
            raise InvalidParameterError(
                f"unknown shuffle mode {self.shuffle_mode!r}; pick from {SHUFFLE_MODES}"
            )
        check_distinct_paths((self.input_path, self.output_path, self.reports_path),
                             "input, output and reports")
        _check_memory(trial_bytes(self.n, self.d, self.k, bool(self.reports_path)), "a trial")
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
    stage_seconds: dict = None     # run_trial's stages, like wall_time never written


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
    its first k. Malformed rows, rows whose boolean state would leave
    {0, 1}, and a row past the n-th raise ParseError with their line number.
    """
    times = np.zeros((n, k), dtype=np.int64)
    values = np.zeros((n, k), dtype=np.int64)
    clipped = 0
    rows = 0
    with open_input(path) as fh:
        for lineno, row in json_lines(fh):
            if rows == n:
                raise ParseError(f"expected {n} rows, found more", lineno)
            if not isinstance(row, dict) or "x" not in row:
                raise ParseError('expected an object with an "x" array', lineno)
            x = row["x"]
            if not isinstance(x, list) or len(x) != d:
                raise ParseError(f'"x" must be a list of length {d}', lineno)
            if any(type(v) is not int or v not in (-1, 0, 1) for v in x):
                raise ParseError('"x" entries must be integers in {-1, 0, 1}', lineno)
            x = np.asarray(x, dtype=np.int64)
            cols = np.flatnonzero(x)
            # the state starts at 0 and stays boolean only if the changes
            # alternate +1, -1, ... over the whole row, clipped part included
            if not ((x[cols[::2]] == 1).all() and (x[cols[1::2]] == -1).all()):
                raise ParseError('"x" changes must alternate +1, -1, starting with +1, '
                                 'so that the state stays in {0, 1}', lineno)
            if len(cols) > k:
                cols = cols[:k]
                clipped += 1
            times[rows, :len(cols)] = cols + 1
            values[rows, :len(cols)] = x[cols]
            rows += 1
    if rows < n:
        raise ParseError(f"expected {n} rows, found {rows}")
    return times, values, clipped


def _floyd_subsets(n, d, k, rng):
    """One uniform k-subset of [0, d) per row, by Floyd's algorithm run on
    all n rows at once: k integer draws over the whole population."""
    # draw i is row i of a (k, n) layout. A draw is taken when it matches
    # one of the rows above, so the taken clients are the columns of the
    # flat match positions: one pass over the rows above per step at any
    # n and k, where `.any(axis=0)` would run an inner loop per row
    cols = np.empty((k, n), dtype=np.int64)
    for i, j in enumerate(range(d - k, d)):
        pick = rng.integers(0, j + 1, size=n)
        pick[(cols[:i] == pick).ravel().nonzero()[0] % n] = j
        cols[i] = pick
    return cols.T.copy()


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
    per-client arrays, one report buffer of at most max(ROWS, 4d) + d
    reports at 12 words each (a mode-none block, or a post-shuffle dump's
    write of at most max(ROWS, 4d)), the tree and the writer. A trial that
    dumps its reports also holds, for the whole dump, its `LineTable`: a
    slot and a mask byte for each of the 2(2d - 1) cells, and a str of at
    most 112 bytes for each cell that holds one of its at most n d
    reports."""
    table = 36 * d + 112 * min(4 * d, n * d) if dump else 0
    return 8 * (4 * n * k + 12 * n + 12 * (max(ROWS, 4 * d) + d) + 40 * d) + table + (4 << 20)


def _estimate_bytes(d):
    """An upper bound on the bytes `estimate` holds over horizon d, for a
    file or a pipe and for any spelling of the rows, in words a timestep:
    the reader's count of each (node, sign) cell (4) and, under its cap,
    its line table, a slot, a mask byte and a str of at most 112 bytes a
    cell (61); the at most 4d - 2 distinct rows and counts it returns,
    with the temporaries of `SumTree.reports` (40); `accumulate_arrays`'
    tree, the counts it adds and its check's temporaries (32);
    `estimate_marginals`' arrays (6); the CSV columns with the truth as
    ints (9). Plus one chunk, READ_BYTES and the partial line the last
    chunk left (`client._chunks`): converted, with its copies and per-line
    arrays, or, if it goes per row, with its decoded text and its rows as
    Python ints and lists, taken one line at a time (16 READ_BYTES either
    way); and 4 MB. A chunk holds at most twice the longest line, whatever
    the line ends, so with a longest line of L > READ_BYTES bytes the
    chunk's term is 16 L in place of 16 READ_BYTES."""
    table = 61 * d if 4 * d - 2 <= READ_LINES else 0
    return 8 * (91 * d + table) + 16 * READ_BYTES + (4 << 20)


def _check_memory(need, what):
    """Refuse, before it starts, a run (what names it) whose bound of need
    bytes exceeds physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise InvalidParameterError(f"{what} may hold {need} bytes, more than "
                                    f"the {memory} bytes of physical memory")


def run_trial(config, trial, seconds=None):
    """Run one seeded trial; returns (estimates, truth, reports emitted,
    clipped). Under shuffle mode none each block of clients is emitted,
    folded into the tree and dropped, and trial 0 writes its stream to
    config.reports_path, if set, block by block, through one `LineTable`
    for the whole file, into the file it empties once its inputs are
    drawn. Under post-shuffle the tree's histogram is drawn directly
    (`_draw_counts`) and trial 0's stream is written from it in cell order
    (`_write_sorted`). A dict passed as seconds receives the seconds of the
    trial's stages: inputs, counts (the tree), estimate and dump (summed
    over the blocks under mode none).
    """
    start = time.perf_counter()
    stream = RandomnessStream(config.seed, trial)
    times, values, clipped = generate_inputs(config.n, config.d, config.k,
                                             config.input_model, stream,
                                             step_time=config.step_time,
                                             input_path=config.input_path)
    dump = config.reports_path if trial == 0 else None
    if dump:
        open_output(dump).close()  # emptied once: every block or write appends
    # one bincount over (time, sign) bins: +1 changes at bin t, -1 changes
    # at span + t; padding (time 0, value 0) lands in bin 0, which is dropped
    span = config.d + 1
    both = np.bincount((times + span * (values < 0)).ravel(), minlength=2 * span)
    truth = np.cumsum(both[1:span] - both[span + 1:])

    target = stream.integers(1, config.k + 1, size=config.n)
    levels = stream.integers(1, level_count(config.d) + 1, size=config.n)
    # the sampled change is entry target-1 of the client's list, flat entry
    # k i + target-1 of the C-ordered (n, k) arrays; a padding entry (time 0)
    # means the client has no change to report
    picked = np.arange(0, config.n * config.k, config.k) + (target - 1)
    signal_t = times.take(picked)
    signal_v = values.take(picked)
    del times, values, picked, target  # so the count draw does not stack on them

    truth_prob = rr_probability(config.epsilon)
    rows = max(ROWS, 4 * config.d)
    located, dumped = time.perf_counter(), 0.0
    if config.shuffle_mode == "post-shuffle":
        tree = _draw_counts(signal_t, signal_v, levels, truth_prob, config.d, stream)
        if dump:
            mark = time.perf_counter()
            _write_sorted(dump, tree, rows)
            dumped = time.perf_counter() - mark
    else:
        ends = np.cumsum(config.d >> (levels - 1))
        # block i holds the clients whose last report falls in (i rows, (i+1) rows]
        cuts = np.searchsorted(ends, np.arange(0, ends[-1], rows), side="right").tolist()
        tree = SumTree(config.d)
        lines = LineTable(tree) if dump else None  # one table for the whole file
        for lo, hi in zip(cuts, cuts[1:] + [config.n]):
            count = int(ends[hi - 1] - (ends[lo - 1] if lo else 0))
            reports = emit_reports(signal_t[lo:hi], signal_v[lo:hi], levels[lo:hi],
                                   stream.uniform(size=count), truth_prob, config.d)
            cells = tree.add(*reports)
            if dump:
                mark = time.perf_counter()
                write_report_arrays(dump, cells, lines)
                dumped += time.perf_counter() - mark
            del reports, cells  # so that no two blocks are held at once
    counted = time.perf_counter()
    estimates = estimate_marginals(tree, config.epsilon, config.k)
    if seconds is not None:
        seconds.update(inputs=located - start, counts=counted - located - dumped,
                       estimate=time.perf_counter() - counted, dump=dumped)
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


def _write_sorted(path, tree, rows):
    """Append the reports in tree to path in (node, sign) cell order, rows at
    a time, through one `LineTable`, first looked up at every cell that
    holds a report, so that their lines are formatted in one batch. Each
    write's cells come from the histogram with no search per report: each
    non-empty cell repeated as many times as its reports fall in the
    write. They are runs of one cell, which the writer joins one line per
    run (`LineTable.text`)."""
    counts = tree.counts.ravel()  # per node: its -1 reports, then its +1
    cell_ids = np.flatnonzero(counts)
    ends = counts[cell_ids].cumsum()
    lines = LineTable(tree)
    lines[cell_ids]  # the lookup formats them all at once
    for lo in range(0, ends[-1], rows):
        # each cell's reports that fall in [lo, lo + rows)
        cells = np.repeat(cell_ids, np.diff(np.clip(ends, lo, lo + rows), prepend=lo))
        write_report_arrays(path, cells, lines)


def simulate(config):
    """Run every trial of a configuration; deterministic given the seed."""
    config.validate()
    bound = theorem_error_bound(config.n, config.d, config.k,
                                config.epsilon, config.beta)
    results = []
    for trial in range(config.trials):
        start, stages = time.perf_counter(), {}
        estimates, truth, reports, clipped = run_trial(config, trial, seconds=stages)
        errors = np.abs(truth - estimates)
        max_err = float(errors.max())
        results.append(SimulationResult(
            trial=trial, max_abs_error=max_err, errors=errors, theorem_bound=bound,
            bound_satisfied=bool(max_err <= bound), wall_time=time.perf_counter() - start,
            clipped_clients=clipped, reports=reports, stage_seconds=stages))
    return results


# ---------------------------------------------------------------------------
# Result serialization. Wall times vary between executions, so they are
# reported in memory but never written to the canonical output files; that
# keeps identical (config, seed) runs byte-identical. Max-error
# distributions are heavy tailed, so the summary quotes the median and
# quantiles rather than a mean.
# ---------------------------------------------------------------------------

def _quantile(ordered, q):
    """The q quantile of a sorted list of floats, exactly as numpy's
    default (linear) method computes it: v = (m - 1) q, then the entries
    around v blended by the fraction of v, from the nearer end."""
    v = (len(ordered) - 1) * q
    i = math.floor(v)
    if i >= len(ordered) - 1:
        return ordered[-1]
    a, b, gamma = ordered[i], ordered[i + 1], v - i
    return b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma


def summarize(results):
    errs = sorted(r.max_abs_error for r in results)
    middle = len(errs) // 2
    return {
        "trials": len(results),
        # np.median's value: the middle entry, or the mean of the middle two
        "median_max_abs_error": errs[middle] if len(errs) % 2
        else (errs[middle - 1] + errs[middle]) / 2,
        "q10_max_abs_error": _quantile(errs, 0.10),
        "q90_max_abs_error": _quantile(errs, 0.90),
        "bound_satisfied_fraction": sum(r.bound_satisfied for r in results) / len(results),
        "theorem_bound": results[0].theorem_bound,
        "clipped_clients": int(results[0].clipped_clients),
    }


def results_to_json(config, results):
    """Canonical JSON text for a run; every float prints as its exact repr.
    The document is indented by the pure-Python encoder; each trial's d
    errors are printed by the C encoder, in the same layout, and spliced in
    where the document has its "errors": null."""
    payload = {
        "config": dataclasses.asdict(config),
        "summary": summarize(results),
        "trials": [
            {
                "trial": r.trial,
                "max_abs_error": r.max_abs_error,
                "theorem_bound": r.theorem_bound,
                "bound_satisfied": r.bound_satisfied,
                "errors": None,
            }
            for r in results
        ],
    }
    # default: a numpy integer in the config prints as a plain int
    text = json.dumps(payload, sort_keys=True, indent=2, default=operator.index)
    # a string escapes its quotes, so only the trials' keys read "errors": null
    parts = text.split('"errors": null')
    indent = "\n" + " " * 8  # an error's line in the indented document
    errors = (json.dumps(np.asarray(r.errors, dtype=np.float64).tolist(),
                         separators=("," + indent, ""))[1:-1] for r in results)
    return "".join(part + f'"errors": [{indent}{body}\n      ]'
                   for part, body in zip(parts, errors)) + parts[-1] + "\n"


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
