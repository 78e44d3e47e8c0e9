"""The committed golden corpus is what the CLI writes today, byte for byte.

`tests/golden/regenerate.py` runs the reference solve and its mirror
seed, two m = 12 solves, `render`, `dispersion`, the criterion-7 coarse
and full sweeps and both criterion-8 sweeps.  Their bytes depend on the
BLAS thread count, which numpy fixes when it loads, so the script runs
in a subprocess with one OpenBLAS thread.
"""

import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SCRIPT = GOLDEN / "regenerate.py"


def test_golden_corpus_is_regenerated_byte_for_byte(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], env=env, check=True)
    expected = sorted(path.name for path in GOLDEN.iterdir() if path.is_file() and path != SCRIPT)
    assert sorted(path.name for path in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_regenerate_refuses_other_thread_counts(tmp_path):
    """At two threads the criterion-8 files come out with other bytes, so
    the script writes nothing and exits non-zero."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert done.returncode != 0
    assert "OPENBLAS_NUM_THREADS=1" in done.stderr
    assert list(tmp_path.iterdir()) == []
