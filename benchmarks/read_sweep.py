#!/usr/bin/env python3
"""Read sweep: seconds and peak-RSS rise of the `estimate` subcommand over
a report file, for source trees side by side. Each call is
`cli.main(["estimate", ..., "--output", os.devnull])` in process, the
whole subcommand (read, accumulate, estimate and CSV write, with its
stderr line discarded), so that trees whose reader returns different
shapes run the same call.

    python3 benchmarks/read_sweep.py --tree parent=/path/to/parent/src \\
        --tree change=src --tree change-cap17=src:131072 \\
        --exponents 6-16 --reports 1,300,300000 --rounds 5 --output sweep.json

A tree is NAME=SRC or NAME=SRC:CAP, where CAP replaces `client.READ_LINES`
in its processes. Each size of file is written twice, holding the same
uniform random (node, sign) cells of the tree over d = 2^e: once in
their random order ("random") and once sorted into cell order ("cell"),
the order of a post-shuffle dump, so that the reader's check runs both
one line per report and one line per run of a cell. Both are written in
canonical lines from the first tree's `SumTree.reports` and
`client.REPORT_LINE`, names that do not change with the writer's API.
Each (tree, file) pair runs in a fresh process of this
one script, pinned to one CPU with one BLAS thread: the VmHWM rise over
its first call (the process's history moves glibc's mmap threshold, so
only rises from one script compare), then the median and min of repeated
calls. The trees' order
rotates from round to round. Prints one JSON line per process and writes
all of them, with the medians over rounds, to --output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

WORKER = r"""
import contextlib, json, os, statistics, sys, time
src, path, d, calls, cap = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5]
sys.path.insert(0, src)
from ldpshuffle import cli, client
if cap:
    client.READ_LINES = int(cap)
argv = ["estimate", "--reports", path, "--d", d, "--k", "1", "--epsilon", "1.0",
        "--output", os.devnull]

def hwm_kb():
    with open("/proc/self/status", "rb") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(b"VmHWM:"))

def read():
    with open(os.devnull, "w") as err, contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    assert code == 0, code
    return seconds

before = hwm_kb()
first = read()
rise = hwm_kb() - before
times = [read() for _ in range(calls)]
print(json.dumps({"first_s": first, "median_s": statistics.median(times),
                  "min_s": min(times + [first]), "rss_rise_mb": rise / 1024}))
"""


ORDERS = ("random", "cell")


def _write(src, paths, d, reports, seed):
    """Write the same random cells to paths, one per order of ORDERS."""
    code = (f"import sys; sys.path.insert(0, {src!r}); import numpy as np\n"
            "from ldpshuffle.aggregator import SumTree\n"
            "from ldpshuffle.client import REPORT_LINE\n"
            f"tree = SumTree({d})\n"
            f"cells = np.random.default_rng({seed}).integers(0, tree.counts.size, {reports})\n"
            f"for path, order in zip({paths!r}, (cells, np.sort(cells))):\n"
            "    rows = zip(*(c.tolist() for c in tree.reports(order)))\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(''.join(REPORT_LINE % row for row in rows))\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def _measure(src, cap, path, d, calls, cpu):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-c", WORKER, src, path, str(d), str(calls), cap or ""]
    run = subprocess.run(argv, env=env, check=True, capture_output=True, text=True,
                         preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    return json.loads(run.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="NAME=SRC[:CAP]")
    parser.add_argument("--exponents", default="6-16", help="e lo-hi, d = 2^e")
    parser.add_argument("--reports", default="1,300,300000", help="reports per file")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    parser.add_argument("--output", required=True)
    args = parser.parse_args()
    trees = []
    for spec in args.tree:
        name, _, where = spec.partition("=")
        src, _, cap = where.partition(":")
        trees.append((name, os.path.abspath(src), cap))
    lo, _, hi = args.exponents.partition("-")
    exponents = range(int(lo), int(hi or lo) + 1)
    sizes = [int(n) for n in args.reports.split(",")]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for e in exponents:
            for n in sizes:
                d = 1 << e
                paths = [os.path.join(tmp, f"d{e}_n{n}_{order}.jsonl") for order in ORDERS]
                _write(trees[0][1], paths, d, n, seed=e)
                calls = 5 if n >= 100_000 else 200
                for order, path in zip(ORDERS, paths):
                    for r in range(args.rounds):
                        for name, src, cap in trees[r % len(trees):] + trees[:r % len(trees)]:
                            row = {"d": f"2^{e}", "reports": n, "order": order, "tree": name,
                                   "round": r + 1,
                                   **_measure(src, cap, path, d, calls, args.cpu)}
                            print(json.dumps(row), flush=True)
                            results.append(row)
    summary = {}
    for row in results:
        key = f"d={row['d']} reports={row['reports']} order={row['order']}"
        summary.setdefault(key, {}).setdefault(row["tree"], []).append(row)
    summary = {key: {tree: {"median_s": statistics.median(r["median_s"] for r in rows),
                            "rss_rise_mb": statistics.median(r["rss_rise_mb"] for r in rows)}
                     for tree, rows in by_tree.items()}
               for key, by_tree in summary.items()}
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump({"trees": {name: {"src": src, "cap": cap or None} for name, src, cap in trees},
                   "summary": summary, "runs": results}, fh, indent=1)


if __name__ == "__main__":
    main()
