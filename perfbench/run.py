#!/usr/bin/env python3
"""ldpshuffle benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload collect --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from `src/`.
Workloads (see workloads.py and BENCHMARK.json): `collect`, `certify`,
`report-io`. `--smoke` shrinks every workload to a few-second self-test
size.

With `--trace 0` the run measures the end-to-end metrics:
  op_gauge_ratio
               mean seconds of one operation (trial_s on collect, certify_s
               on certify, dump_s + estimate_s on report-io) over the mean
               seconds of one run of the host gauge (gauge.py, a fixed kernel
               that calls nothing in ldpshuffle). The gauge runs after each
               op for a tenth of the op's time, so it samples the host evenly
               over the run. The shared host's speed swings by up to 1.6x for
               spells of seconds to minutes, which moves a run's seconds by
               more than the bound; the ratio cancels most of it. Raw seconds
               (median, tail, samples) are in the detail line.
  setup_s      median over five fresh processes of import plus the
               untimed warm-up operation (this process and four probes)
  peak_rss_mb  median over the same five processes of the high-water RSS
               right after the warm-up operation, the footprint of import
               plus one op (the gauge runs later, so its arrays do not count)
With `--trace 1` every other operation runs with the span tracer of
spans.py installed, and the run reports per-layer medians over the traced
operations plus the tracing overhead (traced minus untraced median op seconds).

The last line of standard output is the result object; the line before it
is a detail object with the environment, per-part timings and failures.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("collect", "certify", "report-io")
SETUP_PROBES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
# Share of an op's time the host gauge runs after it: the ops and the
# gauge then see the same mix of the host's fast and slow spells.
GAUGE_SHARE = 0.1


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and warm up, then print the seconds taken")
    return p.parse_args(argv)


def _pin_threads():
    """Load comes from one thread: pin BLAS/OpenMP pools to 1 (never above
    nproc) before numpy loads, and return the values for the record."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def _import_package():
    """Import ldpshuffle from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ldpshuffle", "__init__.py")):
        raise SystemExit(f"error: no ldpshuffle package under {SRC}")
    sys.path.insert(0, SRC)
    import ldpshuffle.cli  # noqa: F401  (numpy and scipy load here too)
    import ldpshuffle
    if os.path.dirname(os.path.dirname(os.path.abspath(ldpshuffle.__file__))) != SRC:
        raise SystemExit(f"error: imported ldpshuffle from {ldpshuffle.__file__}")


def _cpu_ticks():
    """Machine-wide (steal, total) CPU ticks, to tell a busy host from a slow change."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _environment(threads):
    import numpy
    import scipy
    from ldpshuffle.kernels import resolve_backend
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                caches[f"L{level}{kind[0].lower()}"] = fh.read().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": has_numba,
        "backend": resolve_backend(),
        "threads": threads,
    }


def _setup_probe(args):
    """Seconds a fresh process spends importing and warming up, in a child."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["peak_rss_mb"], probe["ok"]


def _peak_rss_mb():
    """This process's high-water RSS. VmHWM belongs to the address space that
    exec made; ru_maxrss also keeps the RSS the parent had when it forked."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _run_gauge(op_seconds, runs):
    """Append gauge run seconds to `runs` until GAUGE_SHARE of the op is spent."""
    import gauge
    spent = 0.0
    while spent == 0.0 or spent < GAUGE_SHARE * op_seconds:
        runs.append(gauge.run_once())
        spent += runs[-1]


def _tail(values):
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return {"percentile": pct, "value_s": sorted(values)[rank - 1], "samples": n}


def main(argv=None):
    args = _parse_args(argv)
    # On SIGTERM, unwind through the finally blocks: subprocess.run kills and
    # reaps a running setup probe, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    threads = _pin_threads()
    ticks = _cpu_ticks()
    start = time.perf_counter()
    _import_package()
    from spans import PREDICTIONS, Tracer, layer_metrics
    from workloads import WORKLOADS, Certify, OpFailed

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
        tracer = Tracer()

        @contextmanager
        def traced(op_id):
            with tracer.installed(), tracer.op(op_id):
                yield

        attempted = failed = 0
        failures = []

        def run_op(fn, i, around):
            nonlocal attempted, failed
            attempted += 1
            try:
                return fn(i, around)
            except OpFailed as exc:
                failed += 1
                failures.append(f"op {i}: {exc}")
                return None

        warm = run_op(workload.warm_up, -1,
                      (lambda: traced(-1)) if args.trace else nullcontext)
        setup = [time.perf_counter() - start]
        peaks = [_peak_rss_mb()]
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0], "peak_rss_mb": peaks[0],
                              "ok": warm is not None}))
            return 0

        ops = []  # (index, traced, {part: seconds})
        gauge_runs = []
        loop_start = time.perf_counter()
        i = 0
        while True:
            is_traced = bool(args.trace) and i % 2 == 0
            op_start = time.perf_counter()
            parts = run_op(workload.op, i,
                           (lambda i=i: traced(i)) if is_traced else nullcontext)
            _run_gauge(time.perf_counter() - op_start, gauge_runs)
            if parts is not None:
                ops.append((i, is_traced, parts))
            i += 1
            if time.perf_counter() - loop_start >= args.seconds \
                    and (not args.trace or i >= 2):
                break

        if isinstance(workload, Certify):
            try:
                Certify.check_reference()
            except OpFailed as exc:
                failures.append(f"reference: {exc}")
                failed = attempted

        steal, total = (b - a for a, b in zip(ticks, _cpu_ticks()))
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": _environment(threads), "failures": failures,
                  "failed_frac": failed / attempted,
                  "host_steal_frac": steal / total if total else 0.0}
        totals = [sum(p.values()) for _, t, p in ops if not t]
        if args.trace:
            traced_ops = [idx for idx, t, _ in ops if t]
            traced_totals = [sum(p.values()) for _, t, p in ops if t]
            bad = [idx for idx in traced_ops if not tracer.check_op(idx)]
            if bad:
                failures.append(f"spans do not account for ops {bad}")
            metrics = layer_metrics(tracer, traced_ops) if traced_ops else {}
            overhead = _median(traced_totals) - _median(totals)
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_frac"] = (overhead / _median(totals) if totals else 0.0,
                                              "ratio")
            detail["predictions"] = PREDICTIONS
            correct = not failures and failed == 0 and bool(traced_ops) and bool(totals)
        else:
            for _ in range(SETUP_PROBES):
                seconds, peak, ok = _setup_probe(args)
                setup.append(seconds)
                peaks.append(peak)
                attempted += 1
                if not ok:
                    failed += 1
                    failures.append("setup probe: warm-up op failed")
            detail["setup_samples_s"] = setup
            detail["peak_rss_samples_mb"] = peaks
            detail["run_peak_rss_mb"] = _peak_rss_mb()
            for part in workload.parts:
                values = [p[part] for _, _, p in ops]
                detail[part] = {"median": statistics.median(values), "tail": _tail(values),
                                "samples": len(values), "values": values} if values else None
            detail["gauge_s"] = {"mean": statistics.fmean(gauge_runs), "tail": _tail(gauge_runs),
                                 "samples": len(gauge_runs)}
            ratio = (statistics.fmean(totals) / statistics.fmean(gauge_runs)) if totals else 0.0
            metrics = {
                "op_gauge_ratio": (ratio, "ratio"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (statistics.median(peaks), "MB"),
            }
            correct = failed == 0 and bool(totals)
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
