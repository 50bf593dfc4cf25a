"""The benchmark's tracer (``bench/tracing.py``, read in place) patches
qfridge functions by name; every name it lists must stay a callable."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_layer_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYER_FUNCTIONS
    for name in tracing.LAYER_FUNCTIONS:
        module, _, function = name.partition(".")
        target = getattr(importlib.import_module(f"qfridge.{module}"), function, None)
        assert callable(target), name
