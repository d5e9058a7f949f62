"""The benchmark's span tracer wraps library functions by module and name,
and reads some of their parameters by name; a moved or renamed function or
parameter must fail here, not in a traced bench run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets():
    return [(mod, name) for mod, names in _spans().TARGETS.items()
            for name in names]


@pytest.mark.parametrize("mod,name", _targets())
def test_span_target_resolves(mod, name):
    module = importlib.import_module(f"hadamard_jsr.{mod}")
    assert callable(getattr(module, name, None)), f"{mod}.{name}"


def test_tracer_binds_radius_bracket_set():
    # the repeat key reads every argument of radius_bracket_set by name, so
    # a renamed or dropped parameter must fail here too
    spans = _spans()
    for mod in spans.TARGETS:
        importlib.import_module(f"hadamard_jsr.{mod}")
    from hadamard_jsr import matrix_set, radius

    sigma = matrix_set([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        radius.radius_bracket_set(sigma, 2)
        radius.radius_bracket_set(sigma=sigma, depth=2)
        radius.radius_bracket_set(sigma, 3)
    finally:
        tracer.uninstall()
    assert tracer.rbs_calls == 3
    assert tracer.rbs_repeats == 1
