"""The names the benchmark harness looks up in vstates still exist, every
exported name resolves, no test oracle is a name of the package, and
importing vstates stays cheap and loads no scipy.

`perfbench/spans.py` wraps each function in its `LAYERS` table, found by
name, and `perfbench/run.py` records `vstates.kernels.active_backend()`.
Deleting one of them breaks `perfbench/run.py --trace 1`, so it fails here.
`perfbench/run.py` also counts the import of vstates in `setup_s`.  One
round of each workload, traced once, must run and check its outputs.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_public_names_resolve():
    """Every exported name resolves, in the package and in each module."""
    import vstates

    modules = [vstates] + [
        importlib.import_module(f"vstates.{info.name}")
        for info in pkgutil.iter_modules(vstates.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_oracles_stay_out_of_the_package():
    """No public name defined in tests/oracles.py is a name of vstates or
    of any of its modules: the cross-check oracles live in the tests only."""
    import vstates

    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    defined = {name for name in defined if not name.startswith("_")}
    assert {"kernel_integral", "vstate_residual_pointwise"} <= defined
    modules = [vstates] + [
        importlib.import_module(f"vstates.{info.name}")
        for info in pkgutil.iter_modules(vstates.__path__)
    ]
    for module in modules:
        leaked = {name for name in defined if hasattr(module, name)}
        assert not leaked, f"{module.__name__} has {sorted(leaked)}"


@pytest.mark.parametrize(
    "workload, trace",
    [("cold-solve", 0), ("cold-solve", 1), ("branch-sweep", 0), ("branch-end", 0),
     ("grid-refinement", 0), ("grid-refinement", 1)],
)
def test_benchmark_round_is_correct(workload, trace):
    """One round of the workload, which writes only under .bench_out/:
    correct outputs, and no failed operation except on branch-end,
    where every operation is a sweep that is meant to fail.  Traced, the
    kernel span sees the four `kernels.kernel_sums` calls of every
    assemble, so a residual that stops calling it fails here."""
    command = [
        sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
        "--seconds", "0", "--seed", "1", "--trace", str(trace),
    ]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    expected = result["attempted"] if workload == "branch-end" else 0
    assert result["failed"] == expected, done.stderr
    if trace:
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert metrics["kernels.kernel_sums.calls"] == 4 * metrics["residual.assemble.calls"]
        assert metrics["kernels.kernel_sums.pairs"] > 0


def test_active_backend_exists():
    from vstates import kernels

    assert isinstance(kernels.active_backend(), str)


def test_import_leaves_scipy_optimize_unloaded():
    """scipy.optimize costs about 0.25 s to import, the whole `setup_s`
    bound; run in a fresh interpreter, since pytest's may hold it already."""
    code = "import sys, vstates; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_import_loads_no_scipy():
    """The runtime is numpy-only: importing vstates and its CLI in a
    fresh interpreter loads no scipy module at all (scipy is a test
    dependency, the oracle of a few checks)."""
    code = (
        "import sys, vstates, vstates.cli; "
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
