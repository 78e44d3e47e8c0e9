"""The benchmark's four workloads: inputs, one timed round, and checks.

A round is a fixed sequence of operations, each a call into vstates: a
requested solve, a sweep or a refinement check.  A run repeats whole
rounds.  `build` makes the inputs from the seed, `operations` turns them
into the round's timed calls, and `check` looks at every round's outputs
after the last round, so that no check runs between timed calls: a check's large
temporaries would change the heap state that the timed calls see.

An operation fails when it raises one of the program's errors, or when
a state it returns is not a usable state: not converged, the annulus,
or not resolved (its pointwise residual on the doubled grid, at nodes
the solve never saw, above RESOLVED).  `check` counts those failures
into each round and returns what else is wrong: outputs that miss the
reference values of the paper's criteria (tests/test_acceptance.py)
or a property the method must have.

The seed moves the inputs by amounts that keep the work of a round the
same: Omega by at most 1e-4 for the cold solves and the middle sweep
segment.  The branch-end sweep takes no input from the seed (see there).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import vstates
import vstates.render

HERE = Path(__file__).resolve().parent

# Operations that end in one of these did not give a usable result.
PROGRAM_FAILURES = (
    vstates.GeometryBreakdown,
    vstates.SingularJacobian,
    vstates.EmptyBranch,
    vstates.InvalidContour,
)

# Largest pointwise residual, on a grid finer than the solve's, of a
# state whose continuous equations are resolved.  Resolved states of
# these workloads read 1e-13 to 2e-9; the criterion-6 states at b = 0.85,
# m = 12, which are not resolved at N = 768, read 1e-3.
RESOLVED = 1e-8

# The refined residuals of a resolved state converge to the residual of
# the continuous curve, so from 2N on they stay within this factor.
LEVEL_FACTOR = 10.0

OMEGA_JITTER = 1e-4


@dataclass
class RoundResult:
    """Outputs of one round, one entry per operation in `data` (None for
    an operation that raised) and in `times` (its wall time in s)."""

    data: list
    times: list
    states: int
    failed: int = 0


@dataclass(frozen=True)
class Workload:
    """build(seed, tmp) -> inputs; operations(inputs) -> the round's
    calls, each returning (output, states); check(inputs, rounds) ->
    errors, after adding the failed operations to each round."""

    name: str
    params: list
    build: Callable
    operations: Callable
    check: Callable


def _jitter(rng: np.random.Generator, scale: float) -> float:
    return float(rng.uniform(-scale, scale))


def _refined_residual(coeffs, omega: float, nodes: int) -> float:
    return vstates.assemble(coeffs, omega, nodes).max_abs


def _usable(report, omega: float, nodes: int) -> bool:
    """Converged, nontrivial and resolved on the doubled grid."""
    return (
        report.converged
        and not report.trivial
        and _refined_residual(report.coeffs, omega, 2 * nodes) <= RESOLVED
    )


def _shape_errors(label: str, report, nodes: int) -> list[str]:
    """A state's certificate holds and its boundaries stay apart."""
    errors = []
    if not report.residual_max < 1e-12:
        errors.append(f"{label}: residual {report.residual_max:.2e} on its nodes")
    try:
        distance = vstates.boundary_distance(vstates.sample(report.coeffs, 2 * nodes))
    except vstates.InvalidContour as exc:
        return errors + [f"{label}: {exc}"]
    if not distance > 0.0:
        errors.append(f"{label}: boundaries touch (distance {distance})")
    return errors


# --- cold-solve -------------------------------------------------------------

# (b, m, Omega, N, M): the reference solve, and b = 0.85, m = 12 near both
# eigenvalues, away from the ends of those branches (the criterion-6
# Omega, 0.04852 and 0.09011, give states that are not resolved at N = 768).
COLD_SOLVES = (
    (0.63, 4, 0.152, 256, 31),
    (0.85, 12, 0.046, 768, 31),
    (0.85, 12, 0.093, 768, 31),
)


def _cold_build(seed: int, tmp: Path):
    rng = np.random.default_rng(seed)
    solves = []
    for b, m, omega, nodes, modes in COLD_SOLVES:
        config = vstates.SolverConfig(modes=modes, nodes=nodes)
        first_mode = vstates.perturbed_annulus(b, m, modes, a1_1=0.02)
        solves.append((b, m, omega + _jitter(rng, OMEGA_JITTER), first_mode, config))
    return solves


def _cold_solve(b, m, omega, first_mode, config):
    try:
        report = vstates.newton_solve(b, omega, m, first_mode, config)
    except PROGRAM_FAILURES:
        return None, 0
    return report, int(report.converged and not report.trivial)


def _cold_operations(solves) -> list[Callable]:
    return [partial(_cold_solve, *solve) for solve in solves]


def _cold_check(solves, rounds: list[RoundResult]) -> list[str]:
    errors = []
    for index, result in enumerate(rounds):
        for (b, m, omega, _, config), report in zip(solves, result.data):
            if report is None or not _usable(report, omega, config.nodes):
                result.failed += 1
                continue
            label = f"round {index}, b={b} m={m} omega={omega:.6f}"
            errors += _shape_errors(label, report, config.nodes)
    return errors


# --- branch-sweep -----------------------------------------------------------

# Three segments of the criterion-7 coarse sweep (b = 0.63, m = 4, N = 512,
# M = 31, step 1e-3): both ends, where the paper's distances are known,
# and the middle around the closest approach.  The whole sweep (35 states,
# 44.5 s) does not fit in one run.
SWEEP_B, SWEEP_M, SWEEP_N, SWEEP_MODES = 0.63, 4, 512, 31
# (start, end, step, states, distance of the first state, +-5e-4)
SWEEP_SEGMENTS = (
    (0.1342, 0.1352, 1e-3, 2, 0.3642),
    (0.1542, 0.1582, 1e-3, 5, None),
    (0.1674, 0.1664, -1e-3, 2, 0.3660),
)
CLOSEST = (0.1564, 0.2530)  # Omega +-5e-4, distance +-1e-3 in the middle segment


def _sweep_build(seed: int, tmp: Path):
    rng = np.random.default_rng(seed)
    segments = [segment[:3] for segment in SWEEP_SEGMENTS]
    start, end, step = segments[1]
    shift = _jitter(rng, OMEGA_JITTER)
    segments[1] = (start + shift, end + shift, step)
    config = vstates.SolverConfig(modes=SWEEP_MODES, nodes=SWEEP_N)
    paths = [tmp / f"segment-{index}.csv" for index in range(len(segments))]
    return segments, config, paths


def _sweep_segment(start, end, step, config, path):
    try:
        branch = vstates.sweep(SWEEP_B, SWEEP_M, start, end, step, config)
    except PROGRAM_FAILURES:
        return None, 0
    written = vstates.BranchFile.from_branch(branch, step, config.modes, config.nodes)
    vstates.save_branch(path, written, timestamp=False)
    return (branch, written, vstates.load_branch(path)), len(branch.records)


def _sweep_operations(inputs) -> list[Callable]:
    segments, config, paths = inputs
    return [
        partial(_sweep_segment, *segment, config, path)
        for segment, path in zip(segments, paths)
    ]


def _sweep_check(inputs, rounds: list[RoundResult]) -> list[str]:
    segments, config, _ = inputs
    errors = []
    for index, result in enumerate(rounds):
        for segment, (*_, count, reference), item in zip(segments, SWEEP_SEGMENTS, result.data):
            if item is None or not all(
                _usable(record.report, record.omega, config.nodes) for record in item[0].records
            ):
                result.failed += 1
                continue
            branch, written, loaded = item
            label = f"round {index}, sweep {segment[0]:.5f}->{segment[1]:.5f}"
            if branch.terminated_at is not None or len(branch.records) != count:
                errors.append(
                    f"{label}: {len(branch.records)} states, "
                    f"terminated at {branch.terminated_at}"
                )
                continue
            if loaded != written:
                errors.append(f"{label}: BranchFile read back differs")
            for record in branch.records:
                errors += _shape_errors(f"{label}, omega={record.omega:.5f}", record.report, config.nodes)
            distances = [record.distance for record in branch.records]
            if reference is not None:
                if abs(distances[0] - reference) > 5e-4:
                    errors.append(f"{label}: end distance {distances[0]:.5f}")
                continue
            closest = branch.records[int(np.argmin(distances))]
            if abs(closest.omega - CLOSEST[0]) > 5e-4 or abs(closest.distance - CLOSEST[1]) > 1e-3:
                errors.append(
                    f"{label}: closest approach {closest.distance:.5f} "
                    f"at {closest.omega:.5f}"
                )
    return errors


# --- branch-end -------------------------------------------------------------

# Descending sweep into the end of the b = 0.6, m = 4 branch at full
# truncation (N = 512, M = 63), on criterion 8's grid.  It starts from a
# state of that branch at Omega = 0.1765 (branch_end_seed.json, written
# by make_branch_end_seed.py), because cold starts from the annulus do not
# converge this far along the branch.  States follow at 0.1760 and
# 0.1755; the solves at 0.1750 and at the bridge point 0.17525 each spend
# all of their warm Newton steps, and the sweep stops at 0.1750, inside
# criterion 8's window.  The two states are not resolved (doubled-grid
# residuals 3.6e-5 and 8.6e-4), so this sweep fails in every round; its
# inputs therefore do not depend on the seed, and the failed share is the
# same in every run.
END_B, END_M, END_N, END_MODES = 0.6, 4, 512, 63
END_GRID = (0.1760, 0.1600, -5e-4)
END_WINDOW = (0.1755, 0.005)
SEED_FILE = HERE / "branch_end_seed.json"


def _end_build(seed: int, tmp: Path):
    start = vstates.load_state(SEED_FILE).coefficients()
    return start, vstates.SolverConfig(modes=END_MODES, nodes=END_N)


def _end_sweep(start, config):
    try:
        branch = vstates.sweep(END_B, END_M, *END_GRID, config, seed_ladder=[start])
    except PROGRAM_FAILURES:
        return None, 0
    return branch, len(branch.records)


def _end_operations(inputs) -> list[Callable]:
    return [partial(_end_sweep, *inputs)]


def _end_check(inputs, rounds: list[RoundResult]) -> list[str]:
    _, config = inputs
    errors = []
    for index, result in enumerate(rounds):
        branch = result.data[0]
        if branch is None:
            result.failed += 1
            continue
        if not all(_usable(record.report, record.omega, config.nodes) for record in branch.records):
            result.failed += 1
        label = f"round {index}"
        if branch.terminated_at is None or abs(branch.terminated_at - END_WINDOW[0]) > END_WINDOW[1]:
            errors.append(f"{label}: terminated at {branch.terminated_at}")
        if not branch.records:
            errors.append(f"{label}: no states before the end")
        for record in branch.records:
            errors += _shape_errors(f"{label}, omega={record.omega:.5f}", record.report, config.nodes)
    return errors


# --- grid-refinement --------------------------------------------------------

REFINEMENTS = (2, 4, 8, 16)


def _grid_build(seed: int, tmp: Path):
    states = []
    for index, (b, m, omega, first_mode, config) in enumerate(_cold_build(seed, tmp)):
        report = vstates.newton_solve(b, omega, m, first_mode, config)
        if not report.converged or report.trivial:
            raise RuntimeError(f"set-up solve at b={b} m={m} omega={omega} failed")
        state = vstates.StateFile.from_report(report, omega, config.nodes)
        path = tmp / f"state-{index}.json"
        vstates.save_state(path, state, timestamp=False)
        states.append((path, state, tmp / f"state-{index}.svg"))
    return states


def _refine(path, svg):
    try:
        loaded = vstates.load_state(path)
        coeffs = loaded.coefficients()
        residuals = [
            _refined_residual(coeffs, loaded.omega, factor * loaded.nodes)
            for factor in REFINEMENTS
        ]
        vstates.render.save_svg(svg, [loaded])
    except PROGRAM_FAILURES:
        return None, 0
    return (loaded, residuals), 1


def _grid_operations(states) -> list[Callable]:
    return [partial(_refine, path, svg) for path, _, svg in states]


def _grid_check(states, rounds: list[RoundResult]) -> list[str]:
    errors = []
    for index, result in enumerate(rounds):
        for (_, saved, _), item in zip(states, result.data):
            if item is None:
                result.failed += 1
                continue
            loaded, residuals = item
            # resolved on every refined grid, and level from 2N on
            if max(residuals) > min(RESOLVED, LEVEL_FACTOR * max(residuals[0], 1e-12)):
                result.failed += 1
            if not all(np.array_equal(getattr(loaded, name), value) for name, value in vars(saved).items()):
                errors.append(
                    f"round {index}, b={saved.b} m={saved.m}: "
                    "StateFile round trip is not bit-exact"
                )
    for _, _, svg in states:
        text = svg.read_text()
        paths, closed = text.count('<path d="M '), text.count(' Z"')
        if paths != 2 or closed != 2:
            errors.append(f"{svg.name}: {paths} paths, {closed} closed, for one state")
    return errors


def _solve_params(solves) -> list[dict]:
    return [
        {"b": b, "m": m, "omega": omega, "N": nodes, "M": modes}
        for b, m, omega, nodes, modes in solves
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("cold-solve", _solve_params(COLD_SOLVES), _cold_build, _cold_operations, _cold_check),
        Workload(
            "branch-sweep",
            [
                {"b": SWEEP_B, "m": SWEEP_M, "omega": list(segment[:3]), "N": SWEEP_N, "M": SWEEP_MODES}
                for segment in SWEEP_SEGMENTS
            ],
            _sweep_build,
            _sweep_operations,
            _sweep_check,
        ),
        Workload(
            "branch-end",
            [{"b": END_B, "m": END_M, "omega": list(END_GRID), "N": END_N, "M": END_MODES}],
            _end_build,
            _end_operations,
            _end_check,
        ),
        Workload(
            "grid-refinement",
            [
                dict(params, N=[factor * params["N"] for factor in REFINEMENTS])
                for params in _solve_params(COLD_SOLVES)
            ],
            _grid_build,
            _grid_operations,
            _grid_check,
        ),
    )
}
