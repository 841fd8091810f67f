"""Command-line front end.

Subcommands: simulate (end-to-end pipeline runs), bound (closed-form
amplification calculator), verify-amplification (exact-oracle soundness
checks), cover (debug dyadic covers), estimate (offline aggregation of a
report file). Exit codes: 0 success, 2 invalid or out-of-regime
parameters, 3 a verification check failed, 141 stdout was closed before
the output was written (128 + SIGPIPE, as a shell reports a process that
the signal ends).
"""

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import re
import resource
import sys
import time

import numpy as np

from .aggregator import accumulate_arrays, dyadic_cover, estimate_marginals
from .amplification import amplify_group, amplify_shuffle, rdp_bound
from .client import INT64_MAX, check_distinct_paths, open_input, open_output, read_reports
from .core import check_count, level_count, scale_factor
from .divergence import ORACLE_MAX_N, certify_amplification
from .errors import InvalidParameterError, ParseError, quote
from .harness import (INPUT_MODELS, SHUFFLE_MODES, SimulationConfig, _check_memory,
                      _estimate_bytes, results_to_json, simulate, summarize, trial_bytes,
                      write_results)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3

# A truth count: a sign and at most 19 ASCII digits past any leading zeros,
# so that int() never reads "1_0", "1e3" or more digits than it converts.
_TRUTH_COUNT = re.compile(r"([+-]?)0*([0-9]{1,19})")


def _print_json(value):
    """Print strict JSON: a non-finite float (an overflowed bound) prints as
    null, and NaN or Infinity can never reach the output."""
    def finite(v):
        if isinstance(v, dict):
            return {key: finite(item) for key, item in v.items()}
        if isinstance(v, float) and not math.isfinite(v):
            return None
        return v
    print(json.dumps(finite(value), sort_keys=True, allow_nan=False))


def _peak_rss_kb():
    """This process's peak resident set in KB: VmHWM, which starts afresh at
    exec, where the kernel provides it. Linux carries ru_maxrss over from the
    process that spawned this one, so it is only the fallback."""
    try:
        fd = os.open("/proc/self/status", os.O_RDONLY)
        try:
            # the kernel hands over the whole status, about 1.5 KB, in one read
            status = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
    except OSError:
        status = b""
    at = status.find(b"\nVmHWM:")
    if at >= 0:
        return int(status[at + 7:status.find(b"\n", at + 1)].split()[0])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cmd_simulate(args):
    # unset options are absent from args, so SimulationConfig owns their defaults
    config = SimulationConfig(**{f.name: getattr(args, f.name)
                                 for f in dataclasses.fields(SimulationConfig)
                                 if hasattr(args, f.name)})
    config.validate()
    # an unwritable output path fails before any trial runs; append mode
    # keeps an existing file's bytes in case a trial fails
    for path in (config.output_path, config.reports_path):
        if path:
            open_output(path, "a").close()
    results = simulate(config)
    if config.output_path:
        write_results(config, results, config.output_path)
    else:
        sys.stdout.write(results_to_json(config, results))
    summary = summarize(results)
    total = sum(r.wall_time for r in results)
    peak_kb = _peak_rss_kb()
    stages = ", ".join(f"{name} {seconds:.3f}s"
                       for name, seconds in results[0].stage_seconds.items())
    print(f"simulate: {config.trials} trial(s) in {total:.3f}s, "
          f"median max error {summary['median_max_abs_error']:.6g}, "
          f"bound satisfied in {summary['bound_satisfied_fraction']:.0%}; trial 0 "
          f"emitted {results[0].reports} reports (stages: {stages}), memory bound "
          f"{trial_bytes(config.n, config.d, config.k, bool(config.reports_path))} B, "
          f"peak RSS {peak_kb} KB",
          file=sys.stderr)
    return EXIT_OK


def _cmd_bound(args):
    result = amplify_shuffle(args.eps0, args.n, args.delta)
    payload = {"eps0": args.eps0, "n": args.n, **dataclasses.asdict(result)}
    if args.alpha is not None:
        payload["rdp"] = {"alpha": args.alpha,
                          "epsilon": rdp_bound(args.eps0, args.n, args.alpha)}
    if args.group is not None:
        group = amplify_group(args.eps0, args.group, args.delta)
        payload["group"] = {"size": args.group,
                            "epsilon_central": group.epsilon_central}
    _print_json(payload)
    return EXIT_OK


def _verify_points(args):
    """Each point (n, eps0, delta, claim) to certify: claim is the
    accountant's `amplify_shuffle(eps0, n, delta)`, which checks a grid row,
    or None for the point the flags give, which `certify_amplification`
    then checks."""
    if args.grid:
        with open_input(args.grid) as fh:
            reader = csv.reader(fh)
            try:
                for row in reader:
                    if not row or row[0].strip().startswith("#"):
                        continue
                    try:
                        n, eps0, delta = row
                        n, eps0, delta = int(n), float(eps0), float(delta)
                        check_count(n, "n", low=2, high=ORACLE_MAX_N)
                        claim = amplify_shuffle(eps0, n, delta)
                    except InvalidParameterError as exc:
                        raise ParseError(str(exc), reader.line_num) from exc
                    except ValueError as exc:
                        raise ParseError("expected a row n,eps0,delta with an integer n",
                                         reader.line_num) from exc
                    yield n, eps0, delta, claim
            except csv.Error as exc:
                raise ParseError(f"malformed CSV: {exc}", reader.line_num) from exc
    else:
        if args.n is None or args.eps0 is None or args.delta is None:
            raise InvalidParameterError("need --n, --eps0 and --delta (or --grid)")
        yield args.n, args.eps0, args.delta, None


def _cmd_verify(args):
    if args.grid and (args.n, args.eps0, args.delta) != (None, None, None):
        raise InvalidParameterError("--grid takes no --n, --eps0 or --delta")
    # every grid row is checked first, so that a bad row fails before any
    # scan; the claim that checked it is the one certified
    points = list(_verify_points(args))
    if not points:
        raise InvalidParameterError(f"grid {args.grid} holds no n,eps0,delta row")
    all_passed = True
    for n, eps0, delta, claim in points:
        start = time.perf_counter()
        record = certify_amplification(n, eps0, delta, claim)
        seconds = time.perf_counter() - start
        # the record holds only scalars, so its own field dict serves, with
        # no deep copy
        _print_json(vars(record))
        print(f"verify-amplification: n={n} eps0={eps0:g} delta={delta:g} certified in "
              f"{seconds:.3f}s, delta_bar {record.delta_bar:.3g}, "
              f"peak RSS {_peak_rss_kb()} KB", file=sys.stderr)
        all_passed = all_passed and record.passed
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _cmd_cover(args):
    _print_json(dyadic_cover(args.t, args.d))
    return EXIT_OK


def _read_truth(path, d):
    """True counts, one int64 integer per line; blank lines and # comments
    skip. A bad line, or a row past the d-th, raises ParseError naming it."""
    values = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if len(values) == d:
                raise ParseError(f"truth file has more than {d} rows", lineno)
            count = _TRUTH_COUNT.fullmatch(line)
            value = int(count[1] + count[2]) if count else None
            if value is None or not -INT64_MAX - 1 <= value <= INT64_MAX:
                raise ParseError(f"expected one int64 integer count, got {quote(line)}",
                                 lineno)
            values.append(value)
    if len(values) < d:
        raise InvalidParameterError(f"truth file has {len(values)} rows, expected {d}")
    return np.array(values, dtype=np.int64)


def _cmd_estimate(args):
    check_distinct_paths((args.reports, args.truth, args.output), "reports, truth and output")
    # the parameters simulate would refuse, before the file is read
    level_count(args.d)
    check_count(args.k, "change budget k", high=args.d)
    scale_factor(args.epsilon)
    bound = _estimate_bytes(args.d)
    _check_memory(bound, f"an estimate over horizon {args.d}")
    # the stream's histogram: each distinct report with its count, which
    # the tree adds in int64
    start = time.perf_counter()
    counts, h, t, u = read_reports(args.reports, args.d)
    tree = accumulate_arrays(h, t, u, args.d, counts)
    estimates = estimate_marginals(tree, args.epsilon, args.k)
    columns = {"t": np.arange(1, args.d + 1), "f_tilde": estimates}
    if args.truth:
        truth = _read_truth(args.truth, args.d)
        columns |= {"f_true": truth, "abs_error": np.abs(estimates - truth)}
    # an integer column prints as it is, a float one with 17 significant digits
    row = ",".join("{:.17g}" if c.dtype.kind == "f" else "{}" for c in columns.values())
    out = open_output(args.output) if args.output else sys.stdout
    try:
        out.write(",".join(columns) + "\n")
        for values in zip(*columns.values()):
            out.write(row.format(*values) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"estimate: {counts.sum()} reports read as {len(h)} rows in "
          f"{time.perf_counter() - start:.3f}s, memory bound {bound} B, "
          f"peak RSS {_peak_rss_kb()} KB", file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once; each subcommand names its handler,
    which `main` looks up at call time, so a patched handler is the one run."""
    parser = argparse.ArgumentParser(
        prog="ldpshuffle",
        description="Longitudinal local-DP collection, shuffle-model "
                    "amplification bounds, and exact certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the client/server pipeline on synthetic data",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--n", type=int, required=True, help="number of clients")
    p.add_argument("--d", type=int, required=True, help="time horizon (power of two)")
    p.add_argument("--k", type=int, required=True, help="per-client change budget")
    p.add_argument("--epsilon", type=float, required=True, help="per-client budget")
    p.add_argument("--beta", type=float, help="bound failure probability")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--input-model", choices=INPUT_MODELS)
    p.add_argument("--shuffle-mode", choices=SHUFFLE_MODES)
    p.add_argument("--step-time", type=int)
    p.add_argument("--input-path", help="JSON-lines change vectors (file model)")
    p.add_argument("--reports-path", help="dump the trial-0 report stream here")
    p.add_argument("--output", dest="output_path", metavar="OUTPUT",
                   help="results file (.csv for CSV, else JSON)")
    p.set_defaults(handler="_cmd_simulate")

    p = sub.add_parser("bound", help="closed-form amplification calculator")
    p.add_argument("--eps0", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None, help="also report the RDP bound")
    p.add_argument("--group", type=int, default=None, help="also report the group bound for |S|")
    p.set_defaults(handler="_cmd_bound")

    p = sub.add_parser("verify-amplification",
                       help="check the calculator against the exact oracle")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps0", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--grid", default=None, help="CSV of n,eps0,delta triples")
    p.set_defaults(handler="_cmd_verify")

    p = sub.add_parser("cover", help="print the dyadic cover of a prefix")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler="_cmd_cover")

    p = sub.add_parser("estimate", help="aggregate a report file into estimates")
    p.add_argument("--reports", required=True, help="JSON-lines report stream")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--truth", default=None, help="optional true counts, one per line")
    p.add_argument("--output", default=None)
    p.set_defaults(handler="_cmd_estimate")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = globals()[args.handler](args)
        sys.stdout.flush()  # so that a closed stdout is met here, not at exit
        return code
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        # the reader of stdout is gone: what is left of the output goes
        # nowhere, and the exit code is a shell's for a process SIGPIPE ends
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
