"""Every function the benchmark's tracer wraps must exist in pdtwin.

``perfbench/tracing.py`` lists them in ``TRACED``; a rename or deletion
under ``src/`` that drops one would otherwise only show when the benchmark
runs with ``--trace``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    for layer, path in traced:
        owner = importlib.import_module(f"pdtwin.{layer}")
        for part in path.split("."):
            assert hasattr(owner, part), f"pdtwin.{layer}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"pdtwin.{layer}.{path}"
