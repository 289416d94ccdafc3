"""The names the benchmark's span tracer wraps exist in the library.

`bench/tracing.py` replaces library functions by name, in the module where
their callers look them up, and counts `GaussianBelief` constructions by
wrapping `__init__` and `from_natural`. A rename in the library would break
only the traced benchmark run; this test makes it break tier-1 instead.
"""

import importlib.util
from pathlib import Path

from duffingid.beliefs import GaussianBelief

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    tracing = load_tracing()
    assert tracing.SPAN_TARGETS
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _ in tracing.SPAN_TARGETS
               if not callable(getattr(module, attr, None))]
    assert not missing, f"span targets no longer defined: {missing}"


def test_construction_counter_targets_exist():
    assert callable(GaussianBelief.__dict__["__init__"])
    assert isinstance(GaussianBelief.__dict__["from_natural"], classmethod)
