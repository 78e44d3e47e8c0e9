"""The names the benchmark harness looks up in vstates still exist.

`perfbench/spans.py` wraps each function in its `LAYERS` table, found by
name, and `perfbench/run.py` records `vstates.kernels.active_backend()`.
Deleting one of them breaks `perfbench/run.py --trace 1`, so it fails here.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_layers_resolve(spans):
    for layer, home, names in spans.LAYERS:
        module = importlib.import_module(home)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}: {home}.{name}"


def test_active_backend_exists():
    from vstates import kernels

    assert isinstance(kernels.active_backend(), str)
