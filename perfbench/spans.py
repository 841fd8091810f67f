"""Span recorder that traces ldpshuffle from outside its source tree.

`Tracer.installed()` replaces the public functions of each layer at the
module attribute their caller looks them up by (for example
`ldpshuffle.harness.emit_reports` or `ldpshuffle.cli.read_reports`) with a
wrapper that records a span, and puts the originals back on exit. Nothing
under `src/` changes. Timing is `time.perf_counter`; memory is the
high-water mark `ru_maxrss` of this process only. Spans stay in memory
until the run summarises them.

A span is named `<module>.<function>` after the function it wraps. Its
self time is its duration minus the part of it that its child spans cover.
Its `rss_rise_mb` is how far the process high-water mark rose while it was
open; a child's rise is also its parent's.
"""

import functools
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = "bench.op"

# Which end-to-end metric each traced layer should move, and on which
# workload (op_gauge_ratio is trial_s on collect, certify_s on certify and
# dump_s + estimate_s on report-io, each over the host gauge). A later
# change that targets one layer states its claim against this table.
PREDICTIONS = {
    "harness.run_trial": "self_s (signal location, truth cumsum, level/target draws) -> op_gauge_ratio, peak_rss_mb on collect",
    "harness.generate_inputs": "op_gauge_ratio, peak_rss_mb on collect",
    "randomizer.coins": "op_gauge_ratio, peak_rss_mb on collect",
    "randomizer.permutation": "op_gauge_ratio on collect",
    "kernels.emit_reports": "op_gauge_ratio on collect; little effect on report-io",
    "aggregator.accumulate_arrays": "op_gauge_ratio on collect and report-io (estimate part)",
    "aggregator.estimate_marginals": "op_gauge_ratio on collect and report-io (estimate part)",
    "harness.write_results": "op_gauge_ratio on collect (serialization stage)",
    "client.write_report_arrays": "op_gauge_ratio on report-io (dump part)",
    "client.read_reports": "op_gauge_ratio on report-io (estimate part)",
    "cli.estimate": "self_s (truth load, CSV write) -> op_gauge_ratio on report-io (estimate part)",
    "amplification.amplify_shuffle": "op_gauge_ratio on certify; none elsewhere",
    "divergence.worst_case_divergence": "op_gauge_ratio on certify; none elsewhere",
    "kernels.divergence_scan": "op_gauge_ratio on certify; none elsewhere",
}

# Spans that have children, so their self time differs from their time.
PARENT_SPANS = ("bench.op", "cli.main", "harness.simulate", "harness.run_trial",
                "cli.estimate", "divergence.certify_amplification",
                "divergence.worst_case_divergence")

# Work counted at a span, by span name.
WORK = {
    "randomizer.coins": ("draws",),
    "randomizer.permutation": ("items",),
    "kernels.emit_reports": ("reports",),
    "aggregator.accumulate_arrays": ("reports",),
    "harness.write_results": ("bytes",),
    "client.write_report_arrays": ("rows", "bytes"),
    "client.read_reports": ("rows", "bytes"),
    "kernels.divergence_scan": ("pairs",),
}

SPANS = ("bench.op", "cli.main", "harness.simulate", "harness.run_trial",
         "harness.generate_inputs", "randomizer.coins", "randomizer.permutation",
         "kernels.emit_reports", "aggregator.accumulate_arrays",
         "aggregator.estimate_marginals", "harness.write_results",
         "client.write_report_arrays", "cli.estimate", "client.read_reports",
         "divergence.certify_amplification", "amplification.amplify_shuffle",
         "divergence.worst_case_divergence", "kernels.divergence_scan")


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int
    start: float
    end: float = None
    rss_start_kb: int = 0
    rss_end_kb: int = 0
    work: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; one instance per benchmark process."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._op = None

    # -- recording ---------------------------------------------------------

    def _begin(self, name):
        parent = self._open[-1].id if self._open else None
        span = Span(id=len(self.spans), name=name, op=self._op, parent=parent,
                    start=0.0, rss_start_kb=_maxrss_kb())
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def _end(self, span):
        span.end = time.perf_counter()
        span.rss_end_kb = _maxrss_kb()
        self._open.pop()

    @contextmanager
    def op(self, op_id):
        """Root span of one benchmark operation."""
        self._op = op_id
        span = self._begin(ROOT)
        try:
            yield span
        finally:
            self._end(span)
            self._op = None

    def _wrap(self, name, fn, work=None, only_under=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_under and not (self._open and self._open[-1].name == only_under):
                return fn(*args, **kwargs)
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if work is not None:
                span.work.update(work(args, kwargs, result))
            return result
        return traced

    def _patches(self):
        from ldpshuffle import cli, divergence, harness
        from ldpshuffle.randomizer import RandomnessStream

        def file_bytes(path):
            return os.path.getsize(path)

        return [
            (cli, "main", "cli.main", None),
            (cli, "simulate", "harness.simulate", None),
            (cli, "write_results", "harness.write_results",
             lambda a, k, r: {"bytes": file_bytes(a[2])}),
            (cli, "_cmd_estimate", "cli.estimate", None),
            (cli, "read_reports", "client.read_reports",
             lambda a, k, r: {"rows": len(r[0]), "bytes": file_bytes(a[0])}),
            (cli, "accumulate_arrays", "aggregator.accumulate_arrays",
             lambda a, k, r: {"reports": len(a[0])}),
            (cli, "estimate_marginals", "aggregator.estimate_marginals", None),
            (cli, "certify_amplification", "divergence.certify_amplification", None),
            (harness, "run_trial", "harness.run_trial", None),
            (harness, "generate_inputs", "harness.generate_inputs", None),
            (harness, "emit_reports", "kernels.emit_reports",
             lambda a, k, r: {"reports": len(r[0])}),
            (harness, "accumulate_arrays", "aggregator.accumulate_arrays",
             lambda a, k, r: {"reports": len(a[0])}),
            (harness, "estimate_marginals", "aggregator.estimate_marginals", None),
            (harness, "write_report_arrays", "client.write_report_arrays",
             lambda a, k, r: {"rows": len(a[1]), "bytes": file_bytes(a[0])}),
            (divergence, "amplify_shuffle", "amplification.amplify_shuffle", None),
            (divergence, "worst_case_divergence", "divergence.worst_case_divergence", None),
            (divergence, "divergence_scan", "kernels.divergence_scan",
             lambda a, k, r: {"pairs": len(r)}),
            (RandomnessStream, "permutation", "randomizer.permutation",
             lambda a, k, r: {"items": int(a[1])}),
            # a uniform draw made by run_trial itself is the coin matrix; one
            # made inside generate_inputs stays part of that span
            (RandomnessStream, "uniform", "randomizer.coins",
             lambda a, k, r: {"draws": r.size}, "harness.run_trial"),
        ]

    @contextmanager
    def installed(self):
        """Trace every layer while the block runs; restore the originals after."""
        saved = []
        try:
            for owner, attr, name, work, *only_under in self._patches():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, work, *only_under))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- summarising -------------------------------------------------------

    def op_spans(self, op_id):
        return [s for s in self.spans if s.op == op_id]

    @staticmethod
    def self_times(spans):
        """Self seconds per span id: duration minus the union of its children."""
        children = {}
        for s in spans:
            children.setdefault(s.parent, []).append(s)
        out = {}
        for s in spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    def check_op(self, op_id, tol=1e-6):
        """True when the op's root minus its children equals the root's self
        time, and every span's self time sums to the root's duration."""
        spans = self.op_spans(op_id)
        roots = [s for s in spans if s.name == ROOT]
        if len(roots) != 1 or any(s.end is None for s in spans):
            return False
        root = roots[0]
        selfs = self.self_times(spans)
        direct = sum(s.end - s.start for s in spans if s.parent == root.id)
        duration = root.end - root.start
        return (abs(duration - direct - selfs[root.id]) <= tol
                and abs(sum(selfs.values()) - duration) <= tol)

    def per_op(self, op_id):
        """Per span name: seconds, self seconds, calls and work for one op."""
        spans = self.op_spans(op_id)
        selfs = self.self_times(spans)
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in SPANS}
        for s in spans:
            row = out[s.name]
            row["s"] += s.end - s.start
            row["self_s"] += selfs[s.id]
            row["calls"] += 1
            for key, value in s.work.items():
                row[key] = row.get(key, 0) + value
        return out

    def rss_rise_mb(self):
        """High-water-mark rise per span name over every traced span."""
        out = {name: 0.0 for name in SPANS}
        for s in self.spans:
            out[s.name] += (s.rss_end_kb - s.rss_start_kb) / 1024.0
        return out


def layer_metrics(tracer, traced_ops):
    """Per-layer metrics: medians over traced ops, plus high-water rises."""
    rows = [tracer.per_op(i) for i in traced_ops]
    rise = tracer.rss_rise_mb()
    metrics = {}
    for name in SPANS:
        def median(key):
            return statistics.median(r[name].get(key, 0) for r in rows)
        metrics[f"{name}.s"] = (median("s"), "s")
        if name in PARENT_SPANS:
            metrics[f"{name}.self_s"] = (median("self_s"), "s")
        metrics[f"{name}.calls"] = (median("calls"), "count")
        for key in WORK.get(name, ()):
            metrics[f"{name}.{key}"] = (median(key), "bytes" if key == "bytes" else "count")
        metrics[f"{name}.rss_rise_mb"] = (rise[name], "MB")
    return metrics
