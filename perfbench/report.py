#!/usr/bin/env python3
"""Run every workload and print the seven end-to-end figures by name.

    python3 perfbench/report.py                 # full sizes, run_seconds each
    python3 perfbench/report.py --smoke         # self-test at tiny sizes

Each workload runs in its own process through run.py, one after another.
The report names trial_s (collect), certify_s (certify), dump_s and
estimate_s (report-io), and op_gauge_ratio, setup_s, peak_rss_mb and
failed_frac for every workload. It also checks each run against BENCHMARK.json: every metric it
lists is printed with its unit, the result line has exactly the agreed
keys, and no operation failed. `--smoke` adds a traced run of each
workload and a run in a directory holding only the benchmark, which must
fail without printing a result. Exit status 1 means a check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, workload, seed, seconds, trace, smoke):
    cmd = [sys.executable, os.path.join(os.path.relpath(HERE, ROOT), "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


def _check(done, expected, problems, label):
    """Parse a run's last two lines; record every broken promise."""
    if done.returncode != 0:
        problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return None, None
    lines = done.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1 and detail["failed_frac"] == 0):
        problems.append(f"{label}: failed ops: {detail['failures']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(expected))} or units differ")
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append(f"{label}: non-numeric metric value")
    return detail, result


def _bare_dir_fails(problems):
    """A directory with only the benchmark must exit non-zero, printing no result."""
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "collect", 1, 1, 0, True)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("bare directory: the benchmark ran without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds per workload (default: BENCHMARK.json run_seconds)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = 1 if args.smoke else bench["run_seconds"]
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ((0, 1) if args.smoke else (0,)):
            done = _run(ROOT, workload, args.seed, args.seconds, trace, args.smoke)
            detail, result = _check(done, expected[trace], problems,
                                    f"{workload} trace={trace}")
            if detail is None or trace:
                continue
            for part in ("trial_s", "certify_s", "dump_s", "estimate_s"):
                if part in detail:
                    tail = detail[part]["tail"]
                    extra = f"  (p{tail['percentile']} {tail['value_s']:.4f} s)" if tail else ""
                    rows.append((workload, part, detail[part]["median"], "s",
                                 f"median of {detail[part]['samples']}{extra}"))
            m = result["metrics"]
            rows.append((workload, "op_gauge_ratio", m["op_gauge_ratio"]["value"], "ratio",
                         f"mean op over mean gauge run ({detail['gauge_s']['samples']} runs, "
                         f"mean {detail['gauge_s']['mean']:.4f} s)"))
            rows.append((workload, "setup_s", m["setup_s"]["value"], "s",
                         f"median of {len(detail['setup_samples_s'])} processes"))
            rows.append((workload, "peak_rss_mb", m["peak_rss_mb"]["value"], "MB",
                         f"median high-water RSS after import and one op, "
                         f"{len(detail['peak_rss_samples_mb'])} processes"))
            rows.append((workload, "failed_frac", detail["failed_frac"], "ratio",
                         f"{result['failed']} of {result['attempted']} ops"))
    if args.smoke:
        _bare_dir_fails(problems)

    for workload, name, value, unit, note in rows:
        print(f"{workload:10s} {name:12s} {value:12.4f} {unit:5s} {note}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
