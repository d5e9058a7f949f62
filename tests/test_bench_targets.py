"""The benchmark's span tracer wraps library functions by module and name;
a moved or renamed function must fail here, not in a traced bench run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, name) for mod, names in spans.TARGETS.items()
            for name in names]


@pytest.mark.parametrize("mod,name", _targets())
def test_span_target_resolves(mod, name):
    module = importlib.import_module(f"hadamard_jsr.{mod}")
    assert callable(getattr(module, name, None)), f"{mod}.{name}"
