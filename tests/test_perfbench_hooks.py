"""The benchmark's tracer wraps package functions by name.

A name it cannot find reports 0 for its layer without any error, so a
rename or removal in the package would silently blind that layer.  This
loads ``perfbench/tracing.py`` from the checkout and checks that every
name it wraps still resolves.  Each workload's set-up time includes
``import carlesonlab``, so the package import is kept free of the CLI.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    """perfbench/<name>.py, loaded from the checkout."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load("tracing")
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


def test_workloads_build_their_inputs():
    """Every workload's set-up runs against the package: a config keyword
    or a package name the benchmark passes that has gone fails here, not
    only in a benchmark run.  No pass runs."""
    workloads = _load("workloads")
    for name in workloads.WORKLOADS:
        assert workloads.make(name, 0, None) is not None


def test_package_import_loads_no_cli():
    """A fresh ``import carlesonlab`` loads neither click nor the CLI."""
    code = ("import sys, carlesonlab; "
            "print([m for m in ('click', 'carlesonlab.cli') "
            "if m in sys.modules])")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
