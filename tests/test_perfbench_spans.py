"""The benchmark's span tracer patches functions by module attribute; every
attribute it names must exist and be callable, so renaming or moving a
traced function fails here rather than only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

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
