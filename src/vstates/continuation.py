"""Branch continuation in the angular velocity.

A branch of fold-m states is traced by marching omega over a uniform
grid.  Every warm solve starts from the secant predictor and runs chord
Newton (see `solver`): the inverse of the last Jacobian carries over
from one warm solve to the next.  The predictor extrapolates the last
two converged states linearly in omega.  Next to a bifurcation point
omega0, omega is even in the branch amplitude, so the amplitude grows
like the square root of omega - omega0; while the sweep moves away from
omega0 near the annulus, the predictor extrapolates linearly in that
square root instead, and joins a lone first state to the annulus.

The first grid point has no predecessor, so it is attempted from the
seed ladder, by default one single-mode annulus perturbation; which
mode it displaces follows the sweep direction, matching the
null-direction structure at the two eigenvalues (outer-dominant near
omega_plus, inner-dominant near omega_minus).  `newton_solve` treats
such a first-mode seed as a cold start and replaces it by the
bifurcation predictor wherever a branch reaches the grid point; there
only the sign of the seed matters.  Every attempt, warm or from the
ladder, is handed the sweep's ChordFactors, and the seed picks the
Newton flavour: a cold start runs full Newton and hands no inverse on,
while a ladder seed that is a state is a warm start and runs chord
Newton.

Branch ends show up as solves that stop converging, collapse to the
annulus, or break the geometry; a predicted seed that is not a valid
contour counts as such a failure.  Every solve runs on the caller's
config, so config.max_iter is the one step budget.  A failing warm
solve usually gives up long before it runs out, at the first step with
a fresh Jacobian that does not contract the Newton correction
(`solver`): on criterion 8's descending sweep into the end of the
b = 0.6, m = 4 branch, the solve at 0.1750 stops after 4 steps rather
than breaking down at step 7.  `newton_solve` hands the carried
inverse on only from a usable warm state, so the attempt after a failed
one forms a fresh Jacobian.  A grid point whose warm solve fails is
retried from the seed ladder while the branch is still within
ANNULUS_REACH of the annulus; otherwise it is recorded in
``terminated_at`` and the sweep stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contour import (
    InvalidContour,
    VortexContourCoeffs,
    boundary_distance,
    perturbed_annulus,
    sample,
)
from .dispersion import nearer_eigenvalue
from .solver import (
    ChordFactors,
    GeometryBreakdown,
    SingularJacobian,
    SolveReport,
    SolverConfig,
    newton_solve,
)

__all__ = [
    "BranchRecord",
    "Branch",
    "EmptyBranch",
    "sweep",
    "minimum_distance",
]

# First-mode amplitude of the default cold seed.  `newton_solve` keeps
# only its sign wherever a branch reaches the grid point.
COLD_SEED_AMPLITUDE = 0.02

# Largest coefficient of a state that still counts as next to the
# annulus: the square-root predictor and the cold-seed rescue apply
# only within it.
ANNULUS_REACH = 0.06


def _near_annulus(coeffs: VortexContourCoeffs) -> bool:
    """Whether a state is within ANNULUS_REACH of the annulus."""
    return float(np.abs(coeffs.as_vector()).max()) <= ANNULUS_REACH


class EmptyBranch(RuntimeError):
    """No seed of the ladder gave a nontrivial state at the first grid point."""


@dataclass(frozen=True)
class BranchRecord:
    """One converged nontrivial state along a branch."""

    omega: float
    report: SolveReport
    distance: float


@dataclass
class Branch:
    """Ordered collection of states traced over an omega grid.

    origin names the eigenvalue end the sweep started from (inferred
    from the march direction); terminated_at is the first grid omega
    where no attempt gave a usable state, or None when the sweep reached
    omega_end.
    """

    b: float
    m: int
    records: list[BranchRecord]
    origin: str
    terminated_at: float | None


def _origin(step: float) -> str:
    """Eigenvalue end a sweep starts from: omega_plus for a negative step."""
    return "omega_plus" if step < 0.0 else "omega_minus"


def _cold_seed(b: float, m: int, modes: int, descending: bool) -> VortexContourCoeffs:
    """Single-mode seed shape for a cold start near one eigenvalue."""
    if descending:
        return perturbed_annulus(b, m, modes, a1_1=COLD_SEED_AMPLITUDE)
    return perturbed_annulus(b, m, modes, a2_1=-COLD_SEED_AMPLITUDE)


def _omega_grid(start: float, end: float, step: float) -> np.ndarray:
    named = (("omega_start", start), ("omega_end", end), ("omega_step", step))
    for name, value in named:
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if step == 0.0:
        raise ValueError("omega_step must be nonzero")
    if start == end:
        return np.array([start])
    if (end > start) != (step > 0.0):
        raise ValueError(f"omega_step {step} does not march from {start} toward {end}")
    # A step below the spacing of doubles near omega repeats grid points, which
    # no BranchFile may hold (`state_io.load_branch`); its grid may not even fit in memory.
    if abs(step) < np.spacing(max(abs(start), abs(end))):
        raise ValueError(f"omega_step {step} is too small to move omega from {start}")
    # A regular point within `landing` steps of the end, on either side, is the end.
    landing = 1e-9
    steps = (end - start) / step
    count = int(np.floor(steps + landing))
    try:
        grid = start + step * np.arange(count + 1)
    except MemoryError:
        raise ValueError(f"omega_step {step} needs {count + 1} points, too many to hold") from None
    # Land exactly on the requested end; a short final step is fine.
    if steps - count > landing:
        grid = np.append(grid, end)
    else:
        grid[-1] = end
    # Rounding and landing on the end may still repeat or reverse a point.
    if np.any(np.diff(grid) * step <= 0.0):
        raise ValueError(f"omega_step {step} is too small to move omega from {start}")
    return grid


def _root_offsets(
    known: Sequence[tuple[float, VortexContourCoeffs]], omega: float
) -> tuple[float, float] | None:
    """Square-root coordinates (s of the earlier known point, s at omega)
    when the seed at omega follows the bifurcation law, else None.

    s = sqrt((w - omega0) / (omega1 - omega0)) is 0 at the eigenvalue
    omega0 nearer the last known omega1 and 1 at omega1; a lone state is
    joined to the annulus at s = 0.  The law holds while the last state
    is within ANNULUS_REACH of the annulus and omega moves away from
    omega0 past omega1, with the earlier point on the same side.  Toward
    omega0 the square-root seed shrinks fast while the carried chord
    inverse goes stale, and such solves fail, so the omega secant stays.
    """
    omega1, last = known[-1]
    if not _near_annulus(last):
        return None
    omega0 = nearer_eigenvalue(last.fold, last.b, omega1)
    if omega0 is None:
        return None
    reach = omega1 - omega0
    if reach == 0.0 or (omega - omega1) * reach <= 0.0:
        return None
    before = (known[-2][0] - omega0) / reach if len(known) > 1 else 0.0
    if not 0.0 <= before < 1.0:
        return None
    return np.sqrt(before), np.sqrt((omega - omega0) / reach)


def _secant(
    known: Sequence[tuple[float, VortexContourCoeffs]], omega: float
) -> VortexContourCoeffs:
    """Warm seed at omega from the last two (omega, state) pairs.

    Next to a bifurcation point (`_root_offsets`) the seed is
    extrapolated linearly in s, the square root of the omega offset,
    which gives s times the state for a lone one.  Elsewhere it is
    extrapolated linearly in omega, or is the last state itself when
    that is the only one.
    """
    omega1, last = known[-1]
    x1 = last.as_vector()
    roots = _root_offsets(known, omega)
    if roots is not None:
        s0, s = roots
        x0 = known[-2][1].as_vector() if len(known) > 1 else 0.0
        x = x1 + (s - 1.0) / (1.0 - s0) * (x1 - x0)
    elif len(known) < 2:
        return last
    else:
        omega0, before = known[-2]
        x = x1 + (omega - omega1) / (omega1 - omega0) * (x1 - before.as_vector())
    return VortexContourCoeffs.from_vector(x, last.b, last.fold, last.modes)


def _attempt(
    b: float,
    m: int,
    omega: float,
    seed: VortexContourCoeffs,
    config: SolverConfig,
    chord: ChordFactors,
) -> SolveReport | None:
    """One guarded solve; None for any outcome that is not a usable state."""
    try:
        report = newton_solve(b, omega, m, seed, config, chord)
    except (GeometryBreakdown, SingularJacobian, InvalidContour):
        return None
    return report if report.converged and not report.trivial else None


def _record(omega: float, report: SolveReport, config: SolverConfig) -> BranchRecord:
    distance = boundary_distance(sample(report.coeffs, config.nodes))
    return BranchRecord(omega=float(omega), report=report, distance=distance)


def sweep(
    b: float,
    m: int,
    omega_start: float,
    omega_end: float,
    omega_step: float,
    config: SolverConfig,
    seed_ladder: Sequence[VortexContourCoeffs] | None = None,
) -> Branch:
    """Trace a fold-m branch from omega_start toward omega_end.

    Parameters
    ----------
    b, m : float, int
        Inner radius and fold of the family.
    omega_start, omega_end, omega_step : float
        Uniform marching grid of finite values; the sign of omega_step
        must point from start to end.  Start one step away from an
        eigenvalue, not on it.
    config : SolverConfig
        Passed through to every solve, warm or cold; its max_iter is
        the step budget of each.
    seed_ladder : sequence of VortexContourCoeffs, optional
        Seeds for the first point and the rescue near the annulus, tried
        in order until one gives a usable state; defaults to one
        first-mode seed of COLD_SEED_AMPLITUDE for the sweep direction.
        A first-mode seed that the bifurcation predictor replaces is a
        cold start and runs full Newton; any other seed, such as a
        state, runs chord Newton with the theta stop (`solver`), and one
        that stops on theta fails like any other seed: the next one is
        tried, and after the last the first point raises EmptyBranch.

    Raises
    ------
    ValueError
        When the omega grid is not finite, does not march toward
        omega_end or has a step too small to move omega.
    EmptyBranch
        When every seed of the ladder fails at omega_start.
    """
    grid = _omega_grid(omega_start, omega_end, omega_step)
    origin = _origin(omega_step)
    if seed_ladder is None:
        seed_ladder = [_cold_seed(b, m, config.modes, omega_step < 0.0)]

    records: list[BranchRecord] = []
    terminated_at = None
    chord = ChordFactors()
    for omega in grid:
        report = None
        if records:
            known = [(record.omega, record.report.coeffs) for record in records[-2:]]
            report = _attempt(b, m, omega, _secant(known, omega), config, chord)
        if report is None and (not records or _near_annulus(records[-1].report.coeffs)):
            # The first grid point starts from the seed ladder, and so
            # does a grid point whose warm seed collapsed onto the
            # annulus: a cold start still works near the bifurcation
            # points.  On a developed branch a failed solve means the
            # branch is ending, and re-seeding from the annulus would
            # risk hopping onto a different family, so the rescue is
            # limited to small amplitudes.
            for seed in seed_ladder:
                report = _attempt(b, m, omega, seed, config, chord)
                if report is not None:
                    break
        if report is None:
            terminated_at = float(omega)
            break
        records.append(_record(omega, report, config))
    if not records:
        raise EmptyBranch(
            f"no seed of the ladder converged to a nontrivial state at "
            f"omega = {grid[0]} (b = {b}, m = {m})"
        )
    return Branch(b=b, m=m, records=records, origin=origin, terminated_at=terminated_at)


def minimum_distance(branch: Branch) -> tuple[float, float]:
    """(omega, distance) of the closest boundary approach on the branch."""
    if not branch.records:
        raise ValueError("branch has no records")
    best = min(branch.records, key=lambda record: record.distance)
    return best.omega, best.distance
