"""Write branch_end_seed.json, the starting state of the branch-end workload.

Run from the root of a checkout:

    python3 perfbench/make_branch_end_seed.py

It follows the b = 0.6, m = 4 branch at N = 512, M = 63 from a cold start
at Omega = 0.1800 down to 0.1765 in steps of 5e-4 (the grid of criterion
8's descending sweep), and saves the last state.  Cold starts from the
annulus do not converge this far from the eigenvalue 0.1910.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import vstates  # noqa: E402
from workloads import END_B, END_M, END_MODES, END_N, SEED_FILE  # noqa: E402


def main() -> None:
    config = vstates.SolverConfig(modes=END_MODES, nodes=END_N)
    branch = vstates.sweep(END_B, END_M, 0.1800, 0.1765, -5e-4, config)
    last = branch.records[-1]
    if branch.terminated_at is not None or abs(last.omega - 0.1765) > 1e-12:
        raise SystemExit(f"sweep stopped at {branch.terminated_at}")
    state = vstates.StateFile.from_report(last.report, last.omega, config.nodes)
    vstates.save_state(SEED_FILE, state, timestamp=False)


if __name__ == "__main__":
    main()
