"""Regenerate the golden corpus: byte-stable outputs of the `vstates` CLI.

    OPENBLAS_NUM_THREADS=1 python tests/golden/regenerate.py [DIRECTORY]

runs each command of `COMMANDS` in DIRECTORY (default: the directory of
this script) and writes there the files it writes (`--no-timestamp`)
and its standard output, as `<name>.out`.  The bytes depend on the BLAS
thread count, so the corpus is made with one thread: without
OPENBLAS_NUM_THREADS=1 the script exits non-zero and writes nothing.
It is never edited by hand: a change that moves an output on purpose
regenerates it and says why.  `tests/test_golden.py` runs this script
into a temporary directory and compares the bytes.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

# Checked before numpy loads, which fixes the thread count
if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    sys.exit("regenerate.py: the corpus is defined at one BLAS thread; set OPENBLAS_NUM_THREADS=1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from vstates.cli import main  # noqa: E402

# The problems of the solves and sweeps, with their files written byte-stable
STABLE = "--no-timestamp"
REFERENCE = [
    "--b", "0.63", "--m", "4", "--omega", "0.152", "--nodes", "256", "--modes", "31", STABLE,
]
TWELVE = ["--b", "0.85", "--m", "12", "--nodes", "768", "--modes", "31", STABLE]
CRITERION_7 = ["--b", "0.63", "--m", "4", "--nodes", "512", "--modes", "31", STABLE]
CRITERION_8 = ["--b", "0.6", "--m", "4", "--nodes", "512", "--modes", "63", STABLE]

# (name, argv): in order, since `render` reads the reference state
COMMANDS = (
    ("reference", ["solve", *REFERENCE, "--seed-a1", "0.06", "--out", "reference.json"]),
    ("reference_mirror", [
        "solve", *REFERENCE, "--seed-a1", "-0.06", "--out", "reference_mirror.json",
    ]),
    ("m12_omega0.046", [
        "solve", *TWELVE, "--omega", "0.046", "--seed-a1", "0.01", "--out", "m12_omega0.046.json",
    ]),
    ("m12_omega0.04852", [
        "solve", *TWELVE, "--omega", "0.04852", "--seed-a2", "-0.02",
        "--out", "m12_omega0.04852.json",
    ]),
    ("render_reference", ["render", "reference.json", "--out", "reference.svg"]),
    ("dispersion_m4_b0.63", ["dispersion", "--m", "4", "--b", "0.63"]),
    ("criterion7_coarse", [
        "sweep", *CRITERION_7, "--omega-start", "0.1342", "--omega-end", "0.1674",
        "--omega-step", "1e-3", "--out", "criterion7_coarse.csv",
    ]),
    ("criterion7_full", [
        "sweep", *CRITERION_7, "--omega-start", "0.1342", "--omega-end", "0.1674",
        "--omega-step", "1e-4", "--out", "criterion7_full.csv",
    ]),
    ("criterion8_descending", [
        "sweep", *CRITERION_8, "--omega-start", "0.1905", "--omega-end", "0.16",
        "--omega-step=-5e-4", "--out", "criterion8_descending.csv",
    ]),
    ("criterion8_ascending", [
        "sweep", *CRITERION_8, "--omega-start", "0.1295", "--omega-end", "0.17",
        "--omega-step", "5e-4", "--out", "criterion8_ascending.csv",
    ]),
)


def regenerate(directory: Path) -> None:
    """Run every command in `directory`, keeping each one's standard output."""
    os.chdir(directory)
    for name, argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{name}: vstates {' '.join(argv)} exited with {code}")
        Path(f"{name}.out").write_text(out.getvalue())


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE)
