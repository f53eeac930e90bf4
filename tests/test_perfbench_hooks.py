"""The benchmark's tracer wraps package functions by name.

A name it cannot find reports 0 for its layer without any error, so a
rename or removal in the package would silently blind that layer.  This
loads ``perfbench/tracing.py`` from the checkout and checks that every
name it wraps still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    missing = []
    for _, mod_name, attr in tracing.FUNCTION_SPANS + tracing.COUNTERS:
        if not callable(getattr(importlib.import_module(mod_name), attr,
                                None)):
            missing.append(f"{mod_name}.{attr}")
    for _, mod_name, cls_name, attr, _ in tracing.METHOD_SPANS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append(f"{mod_name}.{cls_name}.{attr}")
    assert not missing
