"""Every span of the end-to-end benchmark still times something.

``benchmarks/e2e/spans.py`` wraps production functions by dotted path.
A rename under ``src/`` makes a path stop resolving; the benchmark then
reports the span as unresolved instead of failing.  This test applies
the rule ``Tracer.install`` applies: each ``SPAN_TARGETS`` group needs
at least one path that ``spans.resolve`` resolves.  The module is
loaded from its file and never modified.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()


@pytest.mark.parametrize("name", sorted(_spans.SPAN_TARGETS))
def test_span_group_resolves(name):
    paths = _spans.SPAN_TARGETS[name]
    assert any(_spans.resolve(path) is not None for path in paths), (
        f"span {name}: no target resolves ({', '.join(paths)})"
    )
