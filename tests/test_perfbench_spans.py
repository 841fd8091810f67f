"""The benchmark's span tracer patches functions by module attribute; every
attribute it names must exist and be callable, so renaming or moving a
traced function fails here rather than only in a benchmark run, and a
traced report dump must still count what it wrote."""

import importlib.util
from pathlib import Path

import pytest

from ldpshuffle import cli

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
PATCHES = spans.Tracer()._patches()


@pytest.mark.parametrize("owner,attr", [pytest.param(p[0], p[1], id=f"{p[0].__name__}.{p[1]}")
                                        for p in PATCHES])
def test_patched_attribute_exists_and_is_callable(owner, attr):
    assert callable(getattr(owner, attr, None))


def test_every_traced_span_has_a_patch():
    assert {p[2] for p in PATCHES} == set(spans.SPANS) - {spans.ROOT}


@pytest.mark.parametrize("mode", ["none", "post-shuffle"])
def test_tracer_counts_a_streamed_dump(capsys, tmp_path, mode):
    # 5000 clients over d = 64 emit about 91k reports: several emission
    # blocks under none, and two shuffle chunks under post-shuffle
    reports = tmp_path / "reports.jsonl"
    common = ["--d", "64", "--k", "2", "--epsilon", "1.0"]
    tracer = spans.Tracer()
    with tracer.installed(), tracer.op(0):
        assert cli.main(["simulate", "--n", "5000", *common, "--shuffle-mode", mode,
                         "--reports-path", str(reports),
                         "--output", str(tmp_path / "run.json")]) == 0
        assert cli.main(["estimate", "--reports", str(reports), *common,
                         "--output", str(tmp_path / "estimates.csv")]) == 0
    assert tracer.check_op(0)
    work = tracer.per_op(0)
    rows = reports.read_bytes().count(b"\n")
    assert work["client.write_report_arrays"]["calls"] > 1
    assert work["client.write_report_arrays"]["rows"] == rows
    assert work["client.read_reports"]["rows"] == rows
    # the parser is built once, and still runs the estimate handler the tracer wraps
    assert work["cli.estimate"]["calls"] == 1
    # post-shuffle draws the tree's histogram without a coin or an emitted report
    emitted = rows if mode == "none" else 0
    assert work["randomizer.coins"].get("draws", 0) == emitted
    assert work["kernels.emit_reports"].get("reports", 0) == emitted
